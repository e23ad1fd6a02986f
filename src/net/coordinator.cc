#include "coordinator.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

#include "obs/metrics.hh"

namespace penelope {
namespace net {

namespace {

/** Listener/handler poll granularity: how often blocked loops
 *  re-check deadlines and the external stop predicate (job
 *  completion wakes the listener at once). */
constexpr int kPollMs = 100;

/** Bounded grace period for in-flight slices once the stop
 *  predicate fires. */
constexpr int kDrainMs = 5'000;

using Clock = std::chrono::steady_clock;

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
    for (std::uint32_t s = 0; s < plan.sliceCount; ++s)
        ready_.push_back(s);
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

JobState
Coordinator::jobState() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return job_.state;
}

std::vector<std::uint32_t>
Coordinator::incompleteSlices(std::uint32_t) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint32_t> manifest;
    if (job_.state != JobState::Partial)
        return manifest;
    for (std::uint32_t s = 0; s < job_.done.size(); ++s) {
        if (!job_.done[s])
            manifest.push_back(s);
    }
    return manifest;
}

void
Coordinator::finalizeJobLocked()
{
    if (jobStateFinal(job_.state) || job_.doneCount < job_.done.size())
        return;
    job_.state = JobState::Complete;
    wakeAccept();
}

bool
Coordinator::run()
{
    if (!listener_.valid())
        return false;

    while (!jobStateFinal(jobState())) {
        if (config_.stopRequested && config_.stopRequested())
            break;
        Socket conn = listener_.accept(kPollMs, wake_[0]);
        if (conn.valid()) {
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
    }

    // Release everything still blocked and join.
    abandon_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
    for (std::thread &handler : handlers_)
        handler.join();
    handlers_.clear();
    return true;
}

bool
Coordinator::claimSlice(std::uint32_t &slice)
{
    std::unique_lock<std::mutex> lock(mutex_);
    // Sleep until something becomes dispatchable (a forfeit
    // requeues its slice) or the run stops.
    cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (stopping_)
        return false;
    slice = ready_.front();
    ready_.pop_front();
    if (job_.state == JobState::Accepted)
        job_.state = JobState::Running;
    ++inFlight_;
    ++stats_.assignments;
    return true;
}

void
Coordinator::forfeitSlice(std::uint32_t slice, bool hung)
{
    std::lock_guard<std::mutex> lock(mutex_);
    --inFlight_;
    if (!jobStateFinal(job_.state)) {
        // Straight back to the queue: the next claim redoes it.
        // Past a stop nothing claims it, and the stop sequence
        // lists it in the job's incomplete manifest.
        ++stats_.reassignments;
        if (hung)
            ++stats_.hungForfeits;
        ready_.push_back(slice);
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
    stats_.workerSimSeconds += result.simSeconds;
    stats_.importSeconds += import_seconds;
    if (job_.done[slice]) {
        ++stats_.duplicateResults;
    } else if (!jobStateFinal(job_.state)) {
        job_.done[slice] = true;
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

    // The first frame must be an empty Hello.  Anything else is a
    // protocol breach and the connection is dropped (cleanly: no
    // work was claimed).
    Frame frame;
    if (recvFrame(sock, frame, config_.sliceTimeoutMs, abort) !=
            RecvStatus::Ok ||
        frame.type != MessageType::Hello || !frame.payload.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.workersSeen;
    }
    serveWorker(sock, frame.flags);
}

void
Coordinator::serveWorker(Socket &sock, std::uint32_t peerCaps)
{
    const AbortFn abort = [this] {
        return abandon_.load(std::memory_order_relaxed);
    };
    // Heartbeats are acked only while this coordinator's registry
    // records, as the run's telemetry then wants the worker's RTT.
    const std::uint32_t caps = obs::enabled()
        ? localCapabilities()
        : localCapabilities() & ~kCapMetrics;
    const bool peer_acks = (peerCaps & caps & kCapMetrics) != 0;

    std::uint32_t slice = 0;
    Frame frame;
    while (claimSlice(slice)) {
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
                }
                if (peer_acks) {
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
