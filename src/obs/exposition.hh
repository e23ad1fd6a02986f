/**
 * @file
 * Text renderings of metric snapshots, and the tiny HTTP endpoint
 * that serves them.
 *
 *  - renderPrometheusAll(): Prometheus text exposition (`# TYPE`
 *    lines, `penelope_`-prefixed underscore names, cumulative
 *    `_bucket{le="..."}` series for histograms).  A label set
 *    (e.g. `worker="2"`) scopes each extra snapshot, which is
 *    how the coordinator exposes per-worker series side by side.
 *  - renderDump(): the sorted human-readable `obs: name value`
 *    listing `--metrics-dump` prints to stderr after a run.
 *  - MetricsServer: a one-thread HTTP/1.0 responder on
 *    `--metrics-port` (port 0 = ephemeral, announced on stderr).
 *    Every request gets the current scrape; a provider hook adds
 *    extra labeled snapshots (the coordinator's per-worker view).
 *
 * All output paths here write to stderr or a socket -- never
 * stdout, which carries the byte-identical experiment statistics.
 */

#ifndef PENELOPE_OBS_EXPOSITION_HH
#define PENELOPE_OBS_EXPOSITION_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.hh"
#include "obs/metrics.hh"

namespace penelope {
namespace obs {

/** Extra labeled snapshots appended to an exposition (label text
 *  like `worker="1"`, inserted verbatim into the braces). */
using LabeledSnapshots =
    std::vector<std::pair<std::string, Snapshot>>;

/** Prometheus text for the local snapshot plus labeled extras:
 *  families in name order, each one `# TYPE` line followed by its
 *  unlabelled local series and then each labeled one. */
std::string
renderPrometheusAll(const Snapshot &local,
                    const LabeledSnapshots &extras);

/** Sorted `prefix name value` lines (one metric per line;
 *  histograms as `.count` / `.sum`). */
std::string renderDump(const Snapshot &snap,
                       const std::string &prefix = "obs: ");

/** Serves renderPrometheusAll() over HTTP/1.0 on a dedicated
 *  thread.  Provider runs per request (may be empty). */
class MetricsServer
{
  public:
    using Provider = std::function<LabeledSnapshots()>;

    MetricsServer() = default;
    ~MetricsServer() { stop(); }
    MetricsServer(const MetricsServer &) = delete;
    MetricsServer &operator=(const MetricsServer &) = delete;

    /** Bind and start serving; false (error filled) on failure. */
    bool start(std::uint16_t port, Provider provider,
               std::string *error);
    std::uint16_t port() const { return port_; }
    void stop();

  private:
    void serveLoop();

    net::Socket listener_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::uint16_t port_ = 0;
    Provider provider_;
};

} // namespace obs
} // namespace penelope

#endif // PENELOPE_OBS_EXPOSITION_HH
