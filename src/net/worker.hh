/**
 * @file
 * The distributed experiment worker.
 *
 * Connects to a coordinator (coordinator.hh), introduces itself
 * with a Hello, then loops: receive a slice assignment, run it
 * through the regular Engine/ResultCache experiment path
 * (runPlanSlice), and stream the resulting content-addressed
 * entries back as one Result frame.  The worker keeps a single
 * ResultCache across assignments, so shared phases (the scheduler
 * profiling set, the one-trace-per-suite maps) simulate once per
 * process and every later slice of the same plan hits them.
 *
 * While a slice runs, a sender thread emits Heartbeat frames every
 * heartbeatIntervalMs, so the coordinator can tell "slow" from
 * "hung".  A coordinator that sets kCapMetrics on its Assign acks
 * each beat, and the worker records the round trip as
 * net.heartbeat_rtt_us if its own registry records; no frame turns
 * the registry on or off.  Each Result carries only the entries
 * not yet sent on this connection; a reconnect resets that set,
 * and duplicates deduplicate on import.  With reconnectBudgetMs > 0 the worker
 * survives coordinator restarts: a lost connection is retried at a
 * fixed pace inside the budget, and the fresh connection replays
 * the Hello (idempotent -- the worker is stateless about the run;
 * the plan travels inside each Assign).
 *
 * The only thing an operator must match across machines is the
 * binary version.
 */

#ifndef PENELOPE_NET_WORKER_HH
#define PENELOPE_NET_WORKER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "core/shardplan.hh"
#include "net/socket.hh"

namespace penelope {
namespace net {

/** Pause between connect attempts: a connect budget ends at most
 *  this late. */
inline constexpr int kConnectRetryMs = 250;

struct WorkerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    /** Simulation threads for the slice runs. */
    unsigned jobs = 1;

    /** Optional persistent worker pool (not owned). */
    ThreadPool *pool = nullptr;

    /** Hardware threads reported in the Hello (0 = unknown). */
    std::uint32_t hostCpus = 0;

    /** Wall-clock budget for the first connect: the worker retries
     *  an unreachable coordinator (commonly one still binding)
     *  every kConnectRetryMs and fails ConnectFailed once the
     *  budget is spent. */
    int connectBudgetMs = 30'000;

    /** Heartbeat cadence while a slice runs (> 0; must be
     *  comfortably below the coordinator's heartbeat timeout). */
    int heartbeatIntervalMs = 1'000;

    /** The same budget for re-establishing a *lost* connection
     *  (coordinator restart, transient network failure), measured
     *  per outage.  0 = no reconnection: a lost connection ends
     *  the worker. */
    int reconnectBudgetMs = 0;

    /** Optional external stop signal (SIGINT/SIGTERM): polled
     *  between assignments and while waiting; the worker finishes
     *  the slice in hand, then leaves cleanly (Drained). */
    AbortFn stopRequested;
};

/** Worker-side accounting. */
struct WorkerStats
{
    unsigned slicesRun = 0;
    double simSeconds = 0.0;     ///< time inside the slice runs
    std::uint64_t sentBytes = 0; ///< Result entry bytes sent
    std::uint64_t fullExportBytes = 0; ///< what full (non-delta)
                                       ///< resends would have cost
    unsigned reconnects = 0;     ///< successful re-connections
    std::uint64_t heartbeatsSent = 0;
};

/** Exit disposition of runWorker(). */
enum class WorkerOutcome
{
    Finished,       ///< coordinator sent Shutdown
    ConnectFailed,  ///< could not reach the coordinator
    ConnectionLost, ///< stream failed mid-run (budget exhausted)
    BadAssignment,  ///< undecodable/unknown plan from coordinator
    Drained,        ///< external stop request honoured
};

/**
 * Run the worker loop against the coordinator at config.host:port.
 * Slices execute through runPlanSlice() on @p workload with
 * results accumulated in @p cache (in-memory, or disk-backed when
 * the operator passed --cache-dir: a restarted worker then serves
 * previously simulated entries instantly).  @p error is filled for
 * non-Finished outcomes.
 */
WorkerOutcome runWorker(const WorkerConfig &config,
                        const WorkloadSet &workload,
                        ResultCache &cache,
                        WorkerStats *stats = nullptr,
                        std::string *error = nullptr);

} // namespace net
} // namespace penelope

#endif // PENELOPE_NET_WORKER_HH
