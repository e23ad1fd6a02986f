/**
 * @file
 * The distributed experiment coordinator / resident analysis service.
 *
 * Carves each submitted ShardPlan's evaluation work into round-robin
 * slices and serves them to connecting workers over the framed
 * protocol (protocol.hh).  Two construction modes share all of the
 * machinery:
 *
 *  - one-shot (the classic `--serve` path): the constructor enqueues
 *    a single job from the given plan and run() returns once that
 *    job reaches a final state;
 *  - resident (`--serve` with no experiments named): run() serves
 *    until requestStop()/the configured stop predicate fires, and
 *    every job arrives over the wire via SubmitJob.
 *
 * The first frame of a connection names its role: a Hello makes it
 * a worker, a SubmitJob a client.  A client connection carries
 * exactly one job (protocol v3): the coordinator answers the
 * SubmitJob with JobUpdates -- Accepted, then one per state change
 * -- and hangs up after the final one (Complete or Partial), when
 * the client closes, or at any further frame from it.  Each update's
 * entries are the store entries that connection has not received
 * yet, so the client receives every entry exactly once.  A client
 * that leaves early does not stop its job: the job runs on and
 * its entries stay in the coordinator's store.
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
 *    locally (the bench render path does, so stdout stays
 *    byte-identical) or surface the gap;
 *  - duplicate completions are harmless: entry streams are
 *    content-addressed, so importing twice deduplicates by key.
 *
 * Graceful stop: requestStop() (or the stop predicate) stops
 * accepting connections and handing out work, gives in-flight
 * slices and final client updates drainTimeoutMs to land, then
 * abandons the stragglers and finalizes every unresolved job as
 * Partial.  The caller then flushes the ResultCache so a restarted
 * service serves everything already computed warm.
 */

#ifndef PENELOPE_NET_COORDINATOR_HH
#define PENELOPE_NET_COORDINATOR_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/shardplan.hh"
#include "net/backoff.hh"
#include "net/protocol.hh"
#include "obs/exposition.hh"
#include "obs/metrics.hh"

namespace penelope {
namespace net {

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

    /** Bounded grace period for in-flight slices and final client
     *  updates once a stop is requested. */
    int drainTimeoutMs = 5'000;

    /** Optional external stop signal (e.g. SIGINT), polled by
     *  run()'s accept loop; equivalent to requestStop(). */
    AbortFn stopRequested;
};

/** Aggregate accounting of one coordinated run. */
struct CoordinatorStats
{
    unsigned slices = 0;          ///< total carved (all jobs)
    unsigned assignments = 0;     ///< Assign frames sent
    unsigned reassignments = 0;   ///< slices requeued after a loss
    unsigned duplicateResults = 0;
    unsigned workersSeen = 0;     ///< accepted Hello handshakes
    std::uint64_t resultBytes = 0; ///< entry-stream bytes received
    double workerSimSeconds = 0.0; ///< sum of worker-reported times
    double importSeconds = 0.0;   ///< coordinator-side entry import
    double wallSeconds = 0.0;     ///< start of run() to completion
    std::vector<std::uint32_t> workerCpus; ///< per accepted worker

    std::uint64_t heartbeats = 0; ///< Heartbeat frames received
    unsigned hungForfeits = 0;    ///< heartbeat-deadline forfeits
    unsigned slicesFailed = 0;    ///< retry budget exhausted
    unsigned jobsSubmitted = 0;   ///< jobs accepted over the wire
    unsigned jobsFinished = 0;    ///< jobs that reached a final state
};

class Coordinator
{
  public:
    /** One-shot: enqueue one job from @p plan; run() returns when
     *  it reaches a final state (Complete or Partial). */
    Coordinator(const ShardPlan &plan, ResultCache &cache,
                const CoordinatorConfig &config);

    /** Resident service: no initial job; every job arrives via
     *  SubmitJob and run() serves until a stop is requested. */
    Coordinator(ResultCache &cache, const CoordinatorConfig &config);

    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Bind and listen; false (with @p error filled) on failure. */
    bool start(std::string *error);

    /** Listening port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /**
     * Serve until done (one-shot: the initial job final; resident:
     * stop requested).  Blocks; returns false only when start()
     * was never called successfully.
     */
    bool run();

    /** Begin a graceful stop: no new connections, jobs or claims;
     *  in-flight work gets drainTimeoutMs, then run() returns.
     *  Callable from any thread (and from within handlers). */
    void requestStop();

    /** Accounting (stable once run() returned). */
    const CoordinatorStats &stats() const { return stats_; }

    /** State of @p job (Rejected for an unknown id). */
    JobState jobState(std::uint32_t job) const;

    /** The slices @p job finished without -- the explicit manifest
     *  behind a Partial state (empty for Complete jobs). */
    std::vector<std::uint32_t> incompleteSlices(
        std::uint32_t job = 0) const;

    /** Latest metric snapshot piggybacked by each worker
     *  [kCapMetrics], labelled `worker="N"` by accept order --
     *  the provider behind `--metrics-port`'s per-worker series.
     *  Assigns ask workers for snapshots only while this process's
     *  registry is enabled; empty until a worker so asked has
     *  heartbeated. */
    obs::LabeledSnapshots workerSnapshots() const;

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
        std::uint32_t id = 0;
        ShardPlan plan;
        JobState state = JobState::Accepted;
        std::vector<SliceState> slices;
        std::vector<unsigned> attempts; ///< dispatches so far
        unsigned doneCount = 0;
        unsigned failedCount = 0;
        unsigned retries = 0;  ///< re-dispatches so far
        std::uint64_t updateSeq = 0; ///< bumped on every change
    };

    /** One dispatchable (job, slice), eligible from notBefore on
     *  (the backoff delay of a retry). */
    struct Ready
    {
        std::uint32_t job = 0;
        std::uint32_t slice = 0;
        std::chrono::steady_clock::time_point notBefore;
    };

    /** A claimed assignment, as handed to a worker handler. */
    struct Claim
    {
        std::uint32_t job = 0;
        std::uint32_t slice = 0;
        ShardPlan plan; ///< copy: the job may finalize meanwhile
    };

    void serveConnection(Socket sock);
    void serveWorker(Socket &sock, std::uint32_t peerCaps,
                     unsigned workerIndex);
    void serveClient(Socket &sock, const Frame &submit);

    bool claimSlice(Claim &claim);
    void forfeitSlice(const Claim &claim, bool hung);
    void completeSlice(const Claim &claim,
                       const ResultMessage &result);

    void wakeAccept() const;
    std::uint32_t createJobLocked(const ShardPlan &plan);
    void finalizeJobLocked(Job &job);

    ShardPlan initialPlan_;
    bool resident_ = false;
    ResultCache &cache_;
    CoordinatorConfig config_;
    BackoffPolicy backoff_;

    Socket listener_;
    std::uint16_t port_ = 0;

    /** Self-pipe polled beside the listener: wakeAccept() makes
     *  run() re-check at once when a job goes final or a stop is
     *  requested, so a one-shot run ends with its job. */
    int wake_[2] = {-1, -1};

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::uint32_t, Job> jobs_;
    std::map<unsigned, obs::Snapshot> workerMetrics_;
    std::uint32_t nextJobId_ = 0;
    std::vector<Ready> ready_;
    unsigned inFlight_ = 0; ///< claimed, neither done nor forfeited

    bool stopping_ = false;          ///< no new work or connections
    std::atomic<bool> abandon_{false}; ///< release blocked receives
    unsigned activeHandlers_ = 0;

    std::vector<std::thread> handlers_;
    CoordinatorStats stats_;
};

} // namespace net
} // namespace penelope

#endif // PENELOPE_NET_COORDINATOR_HH
