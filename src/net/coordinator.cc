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

/** jobId carried by the Rejected update that answers a submit no
 *  job was created for (an undecodable plan, a stop under way). */
constexpr std::uint32_t kNoJobId = 0xffffffffu;

/** Sentinel for "no update sent to this client yet". */
constexpr std::uint64_t kNeverSent = ~0ull;

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

Coordinator::Coordinator(const ShardPlan &plan, ResultCache &cache,
                         const CoordinatorConfig &config)
    : initialPlan_(plan), resident_(false), cache_(cache),
      config_(config)
{
    backoff_.baseMs = config_.backoffBaseMs;
    backoff_.capMs = std::max(config_.backoffCapMs,
                              config_.backoffBaseMs);
    backoff_.seed = config_.backoffSeed;
    std::lock_guard<std::mutex> lock(mutex_);
    createJobLocked(initialPlan_);
}

Coordinator::Coordinator(ResultCache &cache,
                         const CoordinatorConfig &config)
    : resident_(true), cache_(cache), config_(config)
{
    backoff_.baseMs = config_.backoffBaseMs;
    backoff_.capMs = std::max(config_.backoffCapMs,
                              config_.backoffBaseMs);
    backoff_.seed = config_.backoffSeed;
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
Coordinator::jobState(std::uint32_t job) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job);
    return it == jobs_.end() ? JobState::Rejected
                             : it->second.state;
}

obs::LabeledSnapshots
Coordinator::workerSnapshots() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    obs::LabeledSnapshots out;
    for (const auto &[index, snap] : workerMetrics_) {
        out.emplace_back(
            "worker=\"" + std::to_string(index) + "\"", snap);
    }
    return out;
}

std::vector<std::uint32_t>
Coordinator::incompleteSlices(std::uint32_t job) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint32_t> manifest;
    const auto it = jobs_.find(job);
    if (it == jobs_.end() || !jobStateFinal(it->second.state) ||
        it->second.state == JobState::Complete)
        return manifest;
    for (std::uint32_t s = 0; s < it->second.slices.size(); ++s) {
        if (it->second.slices[s] != SliceState::Done)
            manifest.push_back(s);
    }
    return manifest;
}

std::uint32_t
Coordinator::createJobLocked(const ShardPlan &plan)
{
    const std::uint32_t id = nextJobId_++;
    Job &job = jobs_[id];
    job.id = id;
    job.plan = plan;
    job.slices.assign(plan.sliceCount, SliceState::Pending);
    job.attempts.assign(plan.sliceCount, 0);
    const Clock::time_point now = Clock::now();
    for (std::uint32_t s = 0; s < plan.sliceCount; ++s)
        ready_.push_back(Ready{id, s, now});
    stats_.slices += plan.sliceCount;
    return id;
}

void
Coordinator::finalizeJobLocked(Job &job)
{
    if (jobStateFinal(job.state))
        return;
    if (job.doneCount + job.failedCount < job.slices.size())
        return;
    job.state = job.failedCount ? JobState::Partial
                                : JobState::Complete;
    ++job.updateSeq;
    ++stats_.jobsFinished;
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
        if (stopping_)
            return true;
        if (!resident_) {
            const auto it = jobs_.find(0);
            return it != jobs_.end() &&
                jobStateFinal(it->second.state);
        }
        return false;
    };

    while (!doneServing()) {
        if (config_.stopRequested && config_.stopRequested()) {
            requestStop();
            break;
        }
        Socket conn = listener_.accept(kPollMs, wake_[0]);
        char buf[64]; // consume wakes: resident runs outlive jobs
        while (wake_[0] >= 0 && ::read(wake_[0], buf, sizeof(buf)) > 0) {
        }
        if (conn.valid()) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                continue; // dropped: no new work past a stop
            ++activeHandlers_;
            handlers_.emplace_back(
                [this, sock = std::move(conn)]() mutable {
                    serveConnection(std::move(sock));
                });
        }
    }
    listener_.close();

    // Graceful drain: no new claims, but in-flight slices get
    // drainTimeoutMs to land (their receives keep running -- only
    // abandon_ aborts them).
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock,
                     ms(std::max(config_.drainTimeoutMs, 0)),
                     [this] { return inFlight_ == 0; });

        // Whatever did not land is now explicitly incomplete: every
        // unresolved job degrades to Partial (its manifest is the
        // set of slices not Done) instead of hanging the caller.
        for (auto &[id, job] : jobs_) {
            if (jobStateFinal(job.state))
                continue;
            job.state = JobState::Partial;
            ++job.updateSeq;
            ++stats_.jobsFinished;
        }
        ready_.clear();
    }
    cv_.notify_all();

    // One last beat for client streams to push the final updates,
    // then release everything still blocked and join.
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, ms(1000),
                     [this] { return activeHandlers_ == 0; });
    }
    abandon_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
    for (std::thread &handler : handlers_)
        handler.join();
    handlers_.clear();

    stats_.wallSeconds = secondsSince(t0);
    return true;
}

bool
Coordinator::claimSlice(Claim &claim)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stopping_)
            return false;
        const Clock::time_point now = Clock::now();
        Clock::time_point nearest = Clock::time_point::max();
        for (auto it = ready_.begin(); it != ready_.end();) {
            const auto jt = jobs_.find(it->job);
            if (jt == jobs_.end() ||
                jobStateFinal(jt->second.state)) {
                it = ready_.erase(it); // job finalized
                continue;
            }
            if (it->notBefore <= now) {
                Job &job = jt->second;
                claim.job = it->job;
                claim.slice = it->slice;
                claim.plan = job.plan;
                job.slices[it->slice] = SliceState::Assigned;
                ++job.attempts[it->slice];
                if (job.state == JobState::Accepted) {
                    job.state = JobState::Running;
                    ++job.updateSeq;
                }
                ready_.erase(it);
                ++inFlight_;
                ++stats_.assignments;
                cv_.notify_all();
                return true;
            }
            nearest = std::min(nearest, it->notBefore);
            ++it;
        }
        // Sleep until something becomes dispatchable: a new job, a
        // forfeit, a stop, or the nearest backoff expiry.
        if (nearest == Clock::time_point::max())
            cv_.wait(lock);
        else
            cv_.wait_until(lock, nearest);
    }
}

void
Coordinator::forfeitSlice(const Claim &claim, bool hung)
{
    std::lock_guard<std::mutex> lock(mutex_);
    --inFlight_;
    const auto jt = jobs_.find(claim.job);
    if (jt == jobs_.end()) {
        cv_.notify_all();
        return;
    }
    Job &job = jt->second;
    if (jobStateFinal(job.state) ||
        job.slices[claim.slice] != SliceState::Assigned) {
        cv_.notify_all();
        return;
    }
    ++stats_.reassignments;
    if (hung)
        ++stats_.hungForfeits;
    ++job.retries;
    ++job.updateSeq;
    if (stopping_) {
        // Draining: nothing will claim it again; the stop sequence
        // folds it into the job's incomplete manifest.
        job.slices[claim.slice] = SliceState::Pending;
    } else if (job.attempts[claim.slice] > config_.retryBudget) {
        job.slices[claim.slice] = SliceState::Failed;
        ++job.failedCount;
        ++stats_.slicesFailed;
        finalizeJobLocked(job);
    } else {
        // Deterministic backoff: the delay is a pure function of
        // (seed, job/slice stream, attempt), so a seeded test
        // replays the exact schedule.
        const std::uint64_t stream =
            (static_cast<std::uint64_t>(claim.job) << 32) |
            claim.slice;
        job.slices[claim.slice] = SliceState::Pending;
        ready_.push_back(Ready{
            claim.job, claim.slice,
            Clock::now() +
                ms(backoff_.delayMs(stream,
                                    job.attempts[claim.slice]))});
    }
    cv_.notify_all();
}

void
Coordinator::completeSlice(const Claim &claim,
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
    const auto jt = jobs_.find(claim.job);
    if (jt != jobs_.end()) {
        Job &job = jt->second;
        if (job.slices[claim.slice] == SliceState::Done) {
            ++stats_.duplicateResults;
        } else if (!jobStateFinal(job.state) &&
                   job.slices[claim.slice] ==
                       SliceState::Assigned) {
            job.slices[claim.slice] = SliceState::Done;
            ++job.doneCount;
            ++job.updateSeq;
            finalizeJobLocked(job);
        }
    }
    cv_.notify_all();
}

void
Coordinator::serveConnection(Socket sock)
{
    const AbortFn abort = [this] {
        return abandon_.load(std::memory_order_relaxed);
    };

    // The first frame declares the peer's role: Hello = worker,
    // SubmitJob = client.  Anything else is a protocol breach and
    // the connection is dropped (cleanly: no work was claimed).
    Frame frame;
    const RecvStatus status =
        recvFrame(sock, frame, config_.sliceTimeoutMs, abort);
    if (status == RecvStatus::Ok) {
        switch (frame.type) {
          case MessageType::Hello: {
            HelloMessage hello;
            ByteReader r(frame.payload);
            if (hello.decode(r)) {
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
            break;
          }
          case MessageType::SubmitJob:
            serveClient(sock, frame);
            break;
          default:
            break;
        }
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        --activeHandlers_;
    }
    cv_.notify_all();
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

    Claim claim;
    Frame frame;
    while (claimSlice(claim)) {
        const obs::ScopedSpan slice_span("coordinator.slice",
                                         "svc");
        AssignMessage assign;
        assign.sliceIndex = claim.slice;
        assign.plan = claim.plan;
        ByteWriter w;
        assign.encode(w);
        if (!sendFrame(sock, MessageType::Assign, w.view(), caps)) {
            forfeitSlice(claim, false);
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
                forfeitSlice(claim, false);
                return;
            }
            if (now - last_heard > ms(config_.heartbeatTimeoutMs)) {
                forfeitSlice(claim, true);
                return;
            }
            if (abort()) {
                forfeitSlice(claim, false);
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
                forfeitSlice(claim, false);
                return;
            }
            if (frame.type == MessageType::Heartbeat) {
                HeartbeatMessage beat;
                ByteReader r(frame.payload);
                if (!beat.decode(r) ||
                    beat.sliceIndex != claim.slice) {
                    forfeitSlice(claim, false);
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
                        forfeitSlice(claim, false);
                        return;
                    }
                }
                continue;
            }
            if (frame.type != MessageType::Result) {
                forfeitSlice(claim, false);
                return;
            }
            ResultMessage result;
            ByteReader r(frame.payload);
            if (!result.decode(r) ||
                result.sliceIndex != claim.slice) {
                forfeitSlice(claim, false);
                return;
            }
            completeSlice(claim, result);
            completed = true;
        }
    }

    // No more work for this worker: release it.  Best effort -- a
    // worker that vanished already is someone else's exit path.
    sendFrame(sock, MessageType::Shutdown, {});
}

void
Coordinator::serveClient(Socket &sock, const Frame &submit)
{
    SubmitJobMessage message;
    ByteReader r(submit.payload);
    std::uint32_t id = kNoJobId;
    if (message.decode(r)) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!stopping_) {
            id = createJobLocked(message.plan);
            ++stats_.jobsSubmitted;
        }
    }
    if (id == kNoJobId) {
        JobUpdateMessage update;
        update.jobId = kNoJobId;
        update.state = JobState::Rejected;
        ByteWriter w;
        update.encode(w);
        sendFrame(sock, MessageType::JobUpdate, w.view());
        return;
    }
    cv_.notify_all(); // workers: new slices

    // Push an update on every change of the job until the final one
    // is out.  Each carries the store entries this connection has
    // not received yet, so every entry reaches the client once.
    std::unordered_set<Hash128, Hash128Hasher> sent_keys;
    std::uint64_t sent_seq = kNeverSent;
    for (;;) {
        JobUpdateMessage update;
        bool changed = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const Job &job = jobs_.at(id);
            changed = job.updateSeq != sent_seq;
            sent_seq = job.updateSeq;
            update.jobId = id;
            update.state = job.state;
            update.slicesDone = job.doneCount;
            update.slicesTotal =
                static_cast<std::uint32_t>(job.slices.size());
            update.retries = job.retries;
            if (job.state == JobState::Partial) {
                for (std::uint32_t s = 0; s < job.slices.size(); ++s) {
                    if (job.slices[s] != SliceState::Done)
                        update.incompleteSlices.push_back(s);
                }
            }
        }
        if (changed) {
            // Entry bytes outside the lock (the export can be
            // large).  A final job has imported all its slices, so
            // the final update completes the client's copy.
            cache_.exportNewEntries(sent_keys, update.entries);
            ByteWriter w;
            update.encode(w);
            if (!sendFrame(sock, MessageType::JobUpdate, w.view()) ||
                jobStateFinal(update.state))
                return;
        }
        // A close or any further frame from the client ends the
        // conversation; the job itself runs on.
        if (abandon_.load(std::memory_order_relaxed) ||
            sock.waitReadable(kPollMs))
            return;
    }
}

} // namespace net
} // namespace penelope
