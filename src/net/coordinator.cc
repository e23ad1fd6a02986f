#include "coordinator.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

#include "obs/trace.hh"

namespace penelope {
namespace net {

namespace {

/** Listener/handler poll granularity: how often blocked loops
 *  re-check deadlines and the external stop predicate (job
 *  completion and requestStop() wake the listener at once). */
constexpr int kPollMs = 100;

/** Bounded grace period for in-flight slices once a stop is
 *  requested. */
constexpr int kDrainMs = 5'000;

using Clock = std::chrono::steady_clock;

/** Live worker connections (Hello accepted, handler running). */
const penelope::obs::Gauge g_workersConnected =
    penelope::obs::Registry::instance().gauge(
        "svc.workers_connected", "1");

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::chrono::milliseconds
ms(int n)
{
    return std::chrono::milliseconds(n);
}

} // namespace

bool
jobStateFinal(JobState state)
{
    return state == JobState::Complete || state == JobState::Partial;
}

Coordinator::Coordinator(const ShardPlan &plan, ResultCache &cache,
                         const CoordinatorConfig &config)
    : cache_(cache), config_(config), job_(plan)
{
    backoff_.baseMs = config_.backoffBaseMs;
    backoff_.capMs = std::max(config_.backoffCapMs,
                              config_.backoffBaseMs);
    backoff_.seed = config_.backoffSeed;
    const Clock::time_point now = Clock::now();
    for (std::uint32_t s = 0; s < plan.sliceCount; ++s)
        ready_.push_back(Ready{s, now});
    stats_.slices = plan.sliceCount;
}

Coordinator::~Coordinator()
{
    {
        // A destroyed coordinator releases every handler, even
        // after a run() that never completed.
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    abandon_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
    for (std::thread &handler : handlers_) {
        if (handler.joinable())
            handler.join();
    }
    for (const int fd : wake_) {
        if (fd >= 0)
            ::close(fd);
    }
}

bool
Coordinator::start(std::string *error)
{
    listener_ = Socket::listenOn(config_.port, error);
    if (!listener_.valid())
        return false;
    port_ = listener_.boundPort();
    // Without the pipe, run() still ends within one accept poll.
    if (wake_[0] < 0 && ::pipe2(wake_, O_NONBLOCK | O_CLOEXEC) != 0)
        wake_[0] = wake_[1] = -1;
    return true;
}

void
Coordinator::wakeAccept() const
{
    // A full pipe already wakes the poll: a failed write is fine.
    if (wake_[1] >= 0)
        [[maybe_unused]] const ssize_t n = ::write(wake_[1], "", 1);
}

void
Coordinator::requestStop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    wakeAccept();
}

JobState
Coordinator::jobState() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return job_.state;
}

Coordinator::LabeledSnapshots
Coordinator::workerSnapshots() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    LabeledSnapshots out;
    for (const auto &[index, snap] : workerMetrics_) {
        out.emplace_back(
            "worker=\"" + std::to_string(index) + "\"", snap);
    }
    return out;
}

std::vector<std::uint32_t>
Coordinator::incompleteSlices(std::uint32_t) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint32_t> manifest;
    if (job_.state != JobState::Partial)
        return manifest;
    for (std::uint32_t s = 0; s < job_.slices.size(); ++s) {
        if (job_.slices[s] != SliceState::Done)
            manifest.push_back(s);
    }
    return manifest;
}

void
Coordinator::finalizeJobLocked()
{
    if (jobStateFinal(job_.state) ||
        job_.doneCount + job_.failedCount < job_.slices.size())
        return;
    job_.state = job_.failedCount ? JobState::Partial
                                  : JobState::Complete;
    wakeAccept();
}

bool
Coordinator::run()
{
    if (!listener_.valid())
        return false;
    const Clock::time_point t0 = Clock::now();

    const auto doneServing = [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        return stopping_ || jobStateFinal(job_.state);
    };

    while (!doneServing()) {
        if (config_.stopRequested && config_.stopRequested()) {
            requestStop();
            break;
        }
        Socket conn = listener_.accept(kPollMs, wake_[0]);
        if (conn.valid()) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                continue; // dropped: no new work past a stop
            handlers_.emplace_back(
                [this, sock = std::move(conn)]() mutable {
                    serveConnection(std::move(sock));
                });
        }
    }
    listener_.close();

    // Graceful drain: no new claims, but in-flight slices get
    // kDrainMs to land (their receives keep running -- only
    // abandon_ aborts them).
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, ms(kDrainMs),
                     [this] { return inFlight_ == 0; });

        // Whatever did not land is now explicitly incomplete: an
        // unresolved job degrades to Partial (its manifest is the
        // set of slices not Done) instead of hanging the caller.
        if (!jobStateFinal(job_.state))
            job_.state = JobState::Partial;
        ready_.clear();
    }

    // Release everything still blocked and join.
    abandon_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
    for (std::thread &handler : handlers_)
        handler.join();
    handlers_.clear();

    stats_.wallSeconds = secondsSince(t0);
    return true;
}

bool
Coordinator::claimSlice(std::uint32_t &slice)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stopping_)
            return false;
        const Clock::time_point now = Clock::now();
        Clock::time_point nearest = Clock::time_point::max();
        for (auto it = ready_.begin(); it != ready_.end(); ++it) {
            if (it->notBefore <= now) {
                slice = it->slice;
                job_.slices[slice] = SliceState::Assigned;
                ++job_.attempts[slice];
                if (job_.state == JobState::Accepted)
                    job_.state = JobState::Running;
                ready_.erase(it);
                ++inFlight_;
                ++stats_.assignments;
                cv_.notify_all();
                return true;
            }
            nearest = std::min(nearest, it->notBefore);
        }
        // Sleep until something becomes dispatchable: a forfeit, a
        // stop, or the nearest backoff expiry.
        if (nearest == Clock::time_point::max())
            cv_.wait(lock);
        else
            cv_.wait_until(lock, nearest);
    }
}

void
Coordinator::forfeitSlice(std::uint32_t slice, bool hung)
{
    std::lock_guard<std::mutex> lock(mutex_);
    --inFlight_;
    if (jobStateFinal(job_.state) ||
        job_.slices[slice] != SliceState::Assigned) {
        cv_.notify_all();
        return;
    }
    ++stats_.reassignments;
    if (hung)
        ++stats_.hungForfeits;
    if (stopping_) {
        // Draining: nothing will claim it again; the stop sequence
        // folds it into the job's incomplete manifest.
        job_.slices[slice] = SliceState::Pending;
    } else if (job_.attempts[slice] > config_.retryBudget) {
        job_.slices[slice] = SliceState::Failed;
        ++job_.failedCount;
        ++stats_.slicesFailed;
        finalizeJobLocked();
    } else {
        // Deterministic backoff: the delay is a pure function of
        // (seed, slice, attempt), so a seeded test replays the
        // exact schedule.
        job_.slices[slice] = SliceState::Pending;
        ready_.push_back(Ready{
            slice, Clock::now() + ms(backoff_.delayMs(
                                      slice, job_.attempts[slice]))});
    }
    cv_.notify_all();
}

void
Coordinator::completeSlice(std::uint32_t slice,
                           const ResultMessage &result)
{
    // Import outside the coordination lock: the cache parses the
    // stream before taking its own lock, and a large entry stream
    // should not stall claims.  Duplicate imports deduplicate by
    // key.
    const Clock::time_point t0 = Clock::now();
    cache_.importFromBytes(result.entries);
    const double import_seconds = secondsSince(t0);

    std::lock_guard<std::mutex> lock(mutex_);
    --inFlight_;
    stats_.resultBytes += result.entries.size();
    stats_.workerSimSeconds += result.simSeconds;
    stats_.importSeconds += import_seconds;
    if (job_.slices[slice] == SliceState::Done) {
        ++stats_.duplicateResults;
    } else if (!jobStateFinal(job_.state) &&
               job_.slices[slice] == SliceState::Assigned) {
        job_.slices[slice] = SliceState::Done;
        ++job_.doneCount;
        finalizeJobLocked();
    }
    cv_.notify_all();
}

void
Coordinator::serveConnection(Socket sock)
{
    const AbortFn abort = [this] {
        return abandon_.load(std::memory_order_relaxed);
    };

    // The first frame must be a Hello.  Anything else is a protocol
    // breach and the connection is dropped (cleanly: no work was
    // claimed).
    Frame frame;
    HelloMessage hello;
    if (recvFrame(sock, frame, config_.sliceTimeoutMs, abort) !=
            RecvStatus::Ok ||
        frame.type != MessageType::Hello)
        return;
    ByteReader r(frame.payload);
    if (!hello.decode(r))
        return;
    unsigned worker_index = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        worker_index = stats_.workersSeen++;
        stats_.workerCpus.push_back(hello.hostCpus);
    }
    g_workersConnected.add(1);
    serveWorker(sock, frame.flags, worker_index);
    g_workersConnected.add(-1);
}

void
Coordinator::serveWorker(Socket &sock, std::uint32_t peerCaps,
                         unsigned workerIndex)
{
    const AbortFn abort = [this] {
        return abandon_.load(std::memory_order_relaxed);
    };
    // Telemetry is asked of a worker only while this coordinator's
    // registry records: kCapMetrics on an Assign turns the worker's
    // registry on, and nothing here would read its snapshots.
    const std::uint32_t caps = obs::enabled()
        ? localCapabilities()
        : localCapabilities() & ~kCapMetrics;
    const bool peer_metrics = (peerCaps & caps & kCapMetrics) != 0;

    std::uint32_t slice = 0;
    Frame frame;
    while (claimSlice(slice)) {
        const obs::ScopedSpan slice_span("coordinator.slice",
                                         "svc");
        AssignMessage assign;
        assign.sliceIndex = slice;
        assign.plan = job_.plan;
        ByteWriter w;
        assign.encode(w);
        if (!sendFrame(sock, MessageType::Assign, w.view(), caps)) {
            forfeitSlice(slice, false);
            return;
        }

        // Await the Result under two deadlines: the generous slice
        // timeout and the much tighter liveness deadline.
        // Forfeiting returns, which closes the connection: a worker
        // that wakes up later sees EOF instead of hanging on a dead
        // conversation.
        const Clock::time_point assigned = Clock::now();
        Clock::time_point last_heard = assigned;
        bool completed = false;
        while (!completed) {
            const Clock::time_point now = Clock::now();
            if (now - assigned > ms(config_.sliceTimeoutMs)) {
                forfeitSlice(slice, false);
                return;
            }
            if (now - last_heard > ms(config_.heartbeatTimeoutMs)) {
                forfeitSlice(slice, true);
                return;
            }
            if (abort()) {
                forfeitSlice(slice, false);
                return;
            }
            if (!sock.waitReadable(kPollMs))
                continue;

            // Bytes are available: once a frame starts it must
            // finish promptly (sends on one socket are serialized,
            // so nothing interleaves mid-frame).
            const RecvStatus status = recvFrame(
                sock, frame, std::max(config_.heartbeatTimeoutMs, 1000),
                abort);
            if (status != RecvStatus::Ok) {
                forfeitSlice(slice, false);
                return;
            }
            if (frame.type == MessageType::Heartbeat) {
                HeartbeatMessage beat;
                ByteReader r(frame.payload);
                if (!beat.decode(r) ||
                    beat.sliceIndex != slice) {
                    forfeitSlice(slice, false);
                    return;
                }
                last_heard = Clock::now();
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.heartbeats;
                    if (peer_metrics && !beat.metrics.empty()) {
                        obs::Snapshot snap;
                        if (obs::Snapshot::decodeFromBytes(
                                beat.metrics, snap))
                            workerMetrics_[workerIndex] =
                                std::move(snap);
                        // undecodable piggyback bytes: drop the
                        // telemetry, keep the liveness signal
                    }
                }
                if (peer_metrics) {
                    // Echo for the worker's RTT series.  Safe
                    // from this thread: all sends on this socket
                    // happen in this handler.
                    HeartbeatAckMessage ack;
                    ack.sequence = beat.sequence;
                    ByteWriter aw;
                    ack.encode(aw);
                    if (!sendFrame(sock,
                                   MessageType::HeartbeatAck,
                                   aw.view())) {
                        forfeitSlice(slice, false);
                        return;
                    }
                }
                continue;
            }
            if (frame.type != MessageType::Result) {
                forfeitSlice(slice, false);
                return;
            }
            ResultMessage result;
            ByteReader r(frame.payload);
            if (!result.decode(r) ||
                result.sliceIndex != slice) {
                forfeitSlice(slice, false);
                return;
            }
            completeSlice(slice, result);
            completed = true;
        }
    }

    // No more work for this worker: release it.  Best effort -- a
    // worker that vanished already is someone else's exit path.
    sendFrame(sock, MessageType::Shutdown, {});
}

} // namespace net
} // namespace penelope
