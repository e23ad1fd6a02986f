/**
 * @file
 * The distributed experiment coordinator.
 *
 * Carves one ShardPlan's evaluation work into round-robin slices and
 * serves them to connecting workers over the framed protocol
 * (protocol.hh); run() returns once that one job reaches a final
 * state or a stop is requested.  A connection whose first frame is
 * not a Hello is dropped.
 *
 * Failure semantics:
 *
 *  - a worker that disconnects, times out or sends a corrupt frame
 *    forfeits its slice;
 *  - a worker that goes silent past heartbeatTimeoutMs forfeits its
 *    slice long before the slice timeout -- the hung-but-connected
 *    case a healthy TCP stream never surfaces (the forfeit closes
 *    the connection, so a worker that wakes up later sees EOF and
 *    exits bounded);
 *  - a forfeited slice is re-dispatched at most retryBudget times,
 *    each retry delayed by deterministic exponential backoff with
 *    decorrelated jitter (backoff.hh, seeded by backoffSeed);
 *  - a slice that exhausts its budget is marked Failed and the job
 *    finishes *Partial* with an explicit incomplete-slice manifest
 *    instead of hanging -- the caller decides whether to recompute
 *    locally (rendering through the ResultCache does, so stdout
 *    stays byte-identical) or surface the gap;
 *  - duplicate completions are harmless: entry streams are
 *    content-addressed, so importing twice deduplicates by key.
 *
 * Graceful stop: requestStop() (or the stop predicate) stops
 * accepting connections and handing out work, gives in-flight
 * slices a bounded drain to land, then abandons the stragglers and
 * finalizes an unresolved job as Partial.  The caller then flushes
 * the ResultCache, so a rerun with the same store starts warm.
 *
 * Telemetry: while this process's registry records, the coordinator
 * advertises kCapMetrics and acks each heartbeat, so a worker can
 * time the round trip.  It reads no worker metrics.
 */

#ifndef PENELOPE_NET_COORDINATOR_HH
#define PENELOPE_NET_COORDINATOR_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/shardplan.hh"
#include "net/backoff.hh"
#include "net/protocol.hh"

namespace penelope {
namespace net {

/** Lifecycle of the coordinated job. */
enum class JobState : std::uint8_t
{
    Accepted, ///< carved, no slice assigned yet
    Running,
    Complete,
    Partial, ///< finished degraded: see incompleteSlices
};

/** True for states a job can never leave. */
bool jobStateFinal(JobState state);

struct CoordinatorConfig
{
    /** Port to listen on (0 = ephemeral; query with port()). */
    std::uint16_t port = 0;

    /** Workers the operator plans to attach.  Informational (the
     *  run completes with any number >= 1 of them) and the default
     *  basis for slice carving in the bench driver. */
    unsigned workersExpected = 1;

    /** A slice assignment older than this is presumed lost: the
     *  connection is closed and the slice requeued, so a
     *  slow-but-healthy worker's eventual result is discarded
     *  with the connection and the slice is redone elsewhere
     *  (size the timeout generously). */
    int sliceTimeoutMs = 600'000;

    /** Forfeit deadline: silence (no heartbeat, no result) past
     *  this while a slice is assigned forfeits the slice.  Must
     *  exceed the worker's heartbeat interval with margin. */
    int heartbeatTimeoutMs = 5'000;

    /** Re-dispatches allowed per slice after its first assignment
     *  before the slice is marked Failed and the job degrades to
     *  Partial. */
    unsigned retryBudget = 3;

    /** Retry backoff (deterministic decorrelated jitter). */
    int backoffBaseMs = 50;
    int backoffCapMs = 2'000;
    std::uint64_t backoffSeed = 0x9e3779b97f4a7c15ULL;

    /** Optional external stop signal (e.g. SIGINT), polled by
     *  run()'s accept loop; equivalent to requestStop(). */
    AbortFn stopRequested;
};

/** Aggregate accounting of one coordinated run. */
struct CoordinatorStats
{
    unsigned slices = 0;          ///< total carved
    unsigned assignments = 0;     ///< Assign frames sent
    unsigned reassignments = 0;   ///< slices requeued after a loss
    unsigned duplicateResults = 0;
    unsigned workersSeen = 0;     ///< accepted Hello handshakes
    double workerSimSeconds = 0.0; ///< sum of worker-reported times
    double importSeconds = 0.0;   ///< coordinator-side entry import
    std::vector<std::uint32_t> workerCpus; ///< per accepted worker

    std::uint64_t heartbeats = 0; ///< Heartbeat frames received
    unsigned hungForfeits = 0;    ///< heartbeat-deadline forfeits
    unsigned slicesFailed = 0;    ///< retry budget exhausted
};

class Coordinator
{
  public:
    /** Carve @p plan into slices; run() returns when the job
     *  reaches a final state (Complete or Partial). */
    Coordinator(const ShardPlan &plan, ResultCache &cache,
                const CoordinatorConfig &config);

    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Bind and listen; false (with @p error filled) on failure. */
    bool start(std::string *error);

    /** Listening port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /**
     * Serve until the job is final or a stop is requested.  Blocks;
     * returns false only when start() was never called
     * successfully.
     */
    bool run();

    /** Begin a graceful stop: no new connections or claims;
     *  in-flight work gets a bounded drain, then run() returns.
     *  Callable from any thread (and from within handlers). */
    void requestStop();

    /** Accounting (stable once run() returned). */
    const CoordinatorStats &stats() const { return stats_; }

    /** State of the job. */
    JobState jobState() const;

    /** The slices the job finished without -- the explicit manifest
     *  behind a Partial state (empty unless Partial).  The argument
     *  is ignored: it names the job, and there is only one. */
    std::vector<std::uint32_t> incompleteSlices(
        std::uint32_t job = 0) const;

  private:
    enum class SliceState : std::uint8_t
    {
        Pending,
        Assigned,
        Done,
        Failed,
    };

    struct Job
    {
        explicit Job(const ShardPlan &p)
            : plan(p), slices(p.sliceCount, SliceState::Pending),
              attempts(p.sliceCount, 0)
        {
        }

        const ShardPlan plan; ///< immutable: read without the lock
        JobState state = JobState::Accepted;
        std::vector<SliceState> slices;
        std::vector<unsigned> attempts; ///< dispatches so far
        unsigned doneCount = 0;
        unsigned failedCount = 0;
    };

    /** One dispatchable slice, eligible from notBefore on (the
     *  backoff delay of a retry). */
    struct Ready
    {
        std::uint32_t slice = 0;
        std::chrono::steady_clock::time_point notBefore;
    };

    void serveConnection(Socket sock);
    void serveWorker(Socket &sock, std::uint32_t peerCaps);

    bool claimSlice(std::uint32_t &slice);
    void forfeitSlice(std::uint32_t slice, bool hung);
    void completeSlice(std::uint32_t slice,
                       const ResultMessage &result);

    void wakeAccept() const;
    void finalizeJobLocked();

    ResultCache &cache_;
    CoordinatorConfig config_;
    BackoffPolicy backoff_;

    Socket listener_;
    std::uint16_t port_ = 0;

    /** Self-pipe polled beside the listener: wakeAccept() makes
     *  run() re-check at once when the job goes final or a stop is
     *  requested, so a run ends with its job. */
    int wake_[2] = {-1, -1};

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    Job job_;
    std::vector<Ready> ready_;
    unsigned inFlight_ = 0; ///< claimed, neither done nor forfeited

    bool stopping_ = false;          ///< no new work or connections
    std::atomic<bool> abandon_{false}; ///< release blocked receives

    std::vector<std::thread> handlers_;
    CoordinatorStats stats_;
};

} // namespace net
} // namespace penelope

#endif // PENELOPE_NET_COORDINATOR_HH
