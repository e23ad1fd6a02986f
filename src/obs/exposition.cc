#include "obs/exposition.hh"

#include <map>

#include <sys/socket.h>

namespace penelope {
namespace obs {
namespace {

/** penelope_ prefix, dots and dashes to underscores. */
std::string
promName(const std::string &name)
{
    std::string out = "penelope_";
    for (const char c : name)
        out.push_back(c == '.' || c == '-' ? '_' : c);
    return out;
}

const char *
promType(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "untyped";
}

std::string
withLabels(const std::string &base, const std::string &labels,
           const std::string &extra = "")
{
    std::string out = base;
    if (labels.empty() && extra.empty())
        return out;
    out.push_back('{');
    out += labels;
    if (!labels.empty() && !extra.empty())
        out.push_back(',');
    out += extra;
    out.push_back('}');
    return out;
}

/** One series of @p m under family @p base: a scalar line, or a
 *  histogram's cumulative buckets, sum and count. */
void
renderSeries(std::string &out, const std::string &base,
             const SnapshotMetric &m, const std::string &labels)
{
    if (m.kind == MetricKind::Histogram) {
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
            if (b < m.values.size())
                cum += m.values[b];
            // Only emit populated boundaries plus le=0 so the
            // series stays readable; the +Inf bucket always goes.
            if (b + 1 < kHistBuckets &&
                (b >= m.values.size() || m.values[b] == 0) &&
                b != 0)
                continue;
            out += withLabels(
                base + "_bucket", labels,
                "le=\"" + std::to_string(bucketBound(b)) + "\"");
            out.push_back(' ');
            out += std::to_string(cum);
            out.push_back('\n');
        }
        out += withLabels(base + "_bucket", labels,
                          "le=\"+Inf\"");
        out.push_back(' ');
        out += std::to_string(m.count());
        out.push_back('\n');
        out += withLabels(base + "_sum", labels);
        out.push_back(' ');
        out += std::to_string(m.sum());
        out.push_back('\n');
        out += withLabels(base + "_count", labels);
        out.push_back(' ');
        out += std::to_string(m.count());
        out.push_back('\n');
        return;
    }
    out += withLabels(base, labels);
    out.push_back(' ');
    if (m.kind == MetricKind::Gauge)
        out += std::to_string(
            static_cast<std::int64_t>(m.scalar()));
    else
        out += std::to_string(m.scalar());
    out.push_back('\n');
}

} // namespace

std::string
renderPrometheusAll(const Snapshot &local,
                    const LabeledSnapshots &extras)
{
    // The format requires each family's lines to form one group
    // under its `# TYPE`, so gather every source's series by
    // family before rendering any of them.
    struct Series
    {
        const SnapshotMetric *metric;
        const std::string *labels;
    };
    std::map<std::string, std::vector<Series>> families;
    const auto gather = [&](const Snapshot &snap,
                            const std::string &labels) {
        for (const auto &m : snap.metrics)
            families[promName(m.name)].push_back({&m, &labels});
    };
    const std::string unlabelled;
    gather(local, unlabelled);
    for (const auto &[labels, snap] : extras)
        gather(snap, labels);

    std::string out;
    for (const auto &[base, series] : families) {
        out += "# TYPE " + base + ' ' +
            promType(series.front().metric->kind) + '\n';
        for (const Series &s : series)
            renderSeries(out, base, *s.metric, *s.labels);
    }
    return out;
}

std::string
renderDump(const Snapshot &snap, const std::string &prefix)
{
    std::string out;
    for (const auto &m : snap.metrics) {
        if (m.kind == MetricKind::Histogram) {
            out += prefix + m.name +
                ".count " + std::to_string(m.count()) + "\n";
            out += prefix + m.name + ".sum " +
                std::to_string(m.sum()) + " " + m.unit + "\n";
            continue;
        }
        out += prefix + m.name + " ";
        if (m.kind == MetricKind::Gauge)
            out += std::to_string(
                static_cast<std::int64_t>(m.scalar()));
        else
            out += std::to_string(m.scalar());
        if (m.unit != "1")
            out += " " + m.unit;
        out.push_back('\n');
    }
    return out;
}

bool
MetricsServer::start(std::uint16_t port, Provider provider,
                     std::string *error)
{
    listener_ = net::Socket::listenOn(port, error);
    if (!listener_.valid())
        return false;
    port_ = listener_.boundPort();
    provider_ = std::move(provider);
    stop_.store(false);
    thread_ = std::thread([this] { serveLoop(); });
    return true;
}

void
MetricsServer::stop()
{
    if (!thread_.joinable())
        return;
    stop_.store(true);
    thread_.join();
    listener_.close();
}

void
MetricsServer::serveLoop()
{
    while (!stop_.load()) {
        net::Socket conn = listener_.accept(100);
        if (!conn.valid())
            continue;
        // Drain whatever request line arrived; the response is
        // the same for every path.
        char buf[512];
        conn.waitReadable(50);
        (void)::recv(conn.fd(), buf, sizeof buf, MSG_DONTWAIT);
        const Snapshot snap = Registry::instance().scrape();
        const std::string body = renderPrometheusAll(
            snap, provider_ ? provider_() : LabeledSnapshots{});
        std::string resp = "HTTP/1.0 200 OK\r\n"
                           "Content-Type: text/plain; "
                           "version=0.0.4\r\n"
                           "Content-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
        conn.sendAll(resp.data(), resp.size());
    }
}

} // namespace obs
} // namespace penelope
