#include "worker.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/protocol.hh"
#include "obs/metrics.hh"

namespace penelope {
namespace net {

namespace {

constexpr int kPollMs = 100;

/** Worker-side RTT of the heartbeat/ack round trip [kCapMetrics]:
 *  send time to ack receipt on the shared monotonic clock. */
const obs::Histogram g_heartbeatRtt =
    obs::Registry::instance().histogram("net.heartbeat_rtt_us",
                                        "us");

using Clock = std::chrono::steady_clock;

std::chrono::milliseconds
ms(int n)
{
    return std::chrono::milliseconds(n);
}

/** Sleep @p total_ms in short chunks, returning early (true) when
 *  @p stop fires. */
bool
interruptibleSleep(int total_ms, const AbortFn &stop)
{
    Clock::time_point deadline = Clock::now() + ms(total_ms);
    while (Clock::now() < deadline) {
        if (stop && stop())
            return true;
        std::this_thread::sleep_for(ms(std::min(
            kPollMs,
            static_cast<int>(
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(deadline -
                                               Clock::now())
                    .count()) +
                1)));
    }
    return stop && stop();
}

/**
 * Connect, retrying every kConnectRetryMs until @p budget_ms of
 * wall time has passed.  @p stopped is set when the stop predicate
 * ended the loop.
 */
Socket
connectWithBudget(const WorkerConfig &config, int budget_ms,
                  bool &stopped, std::string *error)
{
    stopped = false;
    std::string last_error;
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        if (config.stopRequested && config.stopRequested()) {
            stopped = true;
            return {};
        }
        Socket sock = Socket::connectTo(config.host, config.port,
                                        &last_error);
        if (sock.valid())
            return sock;
        if (Clock::now() - t0 >= ms(budget_ms))
            break;
        if (interruptibleSleep(kConnectRetryMs,
                               config.stopRequested)) {
            stopped = true;
            return {};
        }
    }
    if (error)
        *error = last_error.empty() ? "connect budget exhausted"
                                    : last_error;
    return {};
}

/**
 * Background Heartbeat sender for one assignment.  Sends share the
 * socket with the main thread's Result send, serialized by
 * @p send_mutex; the main thread only *receives* concurrently,
 * which needs no lock.  stop() joins before the Result goes out,
 * so a Result is never interleaved with a late heartbeat.
 */
class HeartbeatSender
{
  public:
    HeartbeatSender(Socket &sock, std::mutex &send_mutex,
                    std::uint32_t slice, int interval_ms,
                    std::uint64_t &counter, bool peer_acks)
        : sock_(sock), sendMutex_(send_mutex), slice_(slice),
          intervalMs_(interval_ms), counter_(counter),
          peerAcks_(peer_acks),
          thread_([this] { loop(); })
    {}

    ~HeartbeatSender() { stop(); }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        std::uint64_t sequence = 0;
        while (!done_) {
            if (cv_.wait_for(lock, ms(intervalMs_),
                             [this] { return done_; }))
                break;
            lock.unlock();
            HeartbeatMessage beat;
            beat.sliceIndex = slice_;
            beat.sequence = ++sequence;
            ByteWriter w;
            beat.encode(w);
            bool sent;
            const std::uint64_t send_us = obs::monotonicMicros();
            {
                std::lock_guard<std::mutex> send_lock(sendMutex_);
                sent = sendFrame(sock_, MessageType::Heartbeat,
                                 w.view());
            }
            if (sent) {
                ++counter_;
                if (peerAcks_)
                    inflight_.emplace(beat.sequence, send_us);
            }
            if (peerAcks_ && sent)
                drainAcks();
            lock.lock();
            if (!sent)
                break; // peer gone; the receive loop will see it
        }
    }

    /**
     * Receive any HeartbeatAck frames already queued on the
     * socket [kCapMetrics].  Safe from this thread: while a slice
     * runs the main thread never receives, and stop() joins this
     * thread before the Result conversation resumes -- acks that
     * arrive later are skipped by the main receive loop.
     */
    void
    drainAcks()
    {
        // A short first wait catches the echo of the beat just
        // sent (loopback turnaround is sub-ms), so the recorded
        // RTT measures the round trip, not the beat interval.
        int wait_ms = 2;
        while (sock_.waitReadable(wait_ms)) {
            wait_ms = 0;
            Frame frame;
            if (recvFrame(sock_, frame, 1000) != RecvStatus::Ok)
                return;
            if (frame.type != MessageType::HeartbeatAck)
                continue;
            HeartbeatAckMessage ack;
            ByteReader r(frame.payload);
            if (!ack.decode(r))
                continue;
            const auto it = inflight_.find(ack.sequence);
            if (it == inflight_.end())
                continue;
            g_heartbeatRtt.record(obs::monotonicMicros() -
                                  it->second);
            inflight_.erase(it);
        }
    }

    Socket &sock_;
    std::mutex &sendMutex_;
    const std::uint32_t slice_;
    const int intervalMs_;
    std::uint64_t &counter_;
    const bool peerAcks_;
    std::unordered_map<std::uint64_t, std::uint64_t> inflight_;

    std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_;
};

} // namespace

WorkerOutcome
runWorker(const WorkerConfig &config, const WorkloadSet &workload,
          ResultCache &cache, WorkerStats *stats,
          std::string *error)
{
    WorkerStats local_stats;
    // Every exit path reports the stats accumulated so far: a
    // worker that ran slices and then lost its coordinator still
    // shows the work it did.
    const auto finish = [&](WorkerOutcome outcome) {
        if (stats)
            *stats = local_stats;
        return outcome;
    };

    // Entry keys already sent on the current connection (delta
    // streams).  Cleared on reconnect: the restarted coordinator's
    // cache may have lost everything.
    std::unordered_set<Hash128, Hash128Hasher> sent_keys;

    /** One connection's conversation; ConnectionLost may be
     *  retried by the reconnect loop below. */
    const auto runSession = [&](Socket &sock) -> WorkerOutcome {
        std::mutex send_mutex;

        HelloMessage hello;
        hello.hostCpus = config.hostCpus;
        {
            ByteWriter w;
            hello.encode(w);
            std::lock_guard<std::mutex> lock(send_mutex);
            if (!sendFrame(sock, MessageType::Hello, w.view())) {
                if (error)
                    *error = "sending hello failed";
                return WorkerOutcome::ConnectionLost;
            }
        }

        for (;;) {
            // Wait for the next frame, honouring stop requests
            // between assignments (the slice in hand always
            // finishes; see below).
            while (!sock.waitReadable(kPollMs)) {
                if (config.stopRequested && config.stopRequested())
                    return WorkerOutcome::Drained;
            }
            Frame frame;
            const RecvStatus status =
                recvFrame(sock, frame, 60'000);
            if (status != RecvStatus::Ok) {
                if (error)
                    *error = status == RecvStatus::Corrupt
                        ? "corrupt frame from coordinator"
                        : "connection to coordinator lost";
                return WorkerOutcome::ConnectionLost;
            }
            if (frame.type == MessageType::HeartbeatAck)
                continue; // late ack from the previous slice
            if (frame.type == MessageType::Shutdown)
                return WorkerOutcome::Finished;
            if (frame.type != MessageType::Assign) {
                if (error)
                    *error = "unexpected frame from coordinator";
                return WorkerOutcome::ConnectionLost;
            }

            AssignMessage assign;
            {
                ByteReader r(frame.payload);
                if (!assign.decode(r)) {
                    if (error)
                        *error = "undecodable assignment";
                    return WorkerOutcome::BadAssignment;
                }
            }
            const auto t0 = Clock::now();
            bool ran;
            {
                HeartbeatSender heartbeats(
                    sock, send_mutex, assign.sliceIndex,
                    config.heartbeatIntervalMs,
                    local_stats.heartbeatsSent,
                    (frame.flags & kCapMetrics) != 0);
                ran = runPlanSlice(workload, assign.plan,
                                   assign.sliceIndex, config.jobs,
                                   config.pool, cache);
                // ~HeartbeatSender joins here: no heartbeat can
                // interleave with the Result below.
            }
            if (!ran) {
                // A plan this binary cannot run (unknown
                // experiment: version skew between coordinator and
                // worker).  Close so the coordinator reassigns;
                // retrying here could never succeed.
                if (error)
                    *error =
                        "assignment names an unknown experiment "
                        "(binary version skew?)";
                return WorkerOutcome::BadAssignment;
            }
            const double sim_seconds =
                std::chrono::duration<double>(Clock::now() - t0)
                    .count();
            ++local_stats.slicesRun;
            local_stats.simSeconds += sim_seconds;

            ResultMessage result;
            result.sliceIndex = assign.sliceIndex;
            result.simSeconds = sim_seconds;
            cache.exportNewEntries(sent_keys, result.entries);
            local_stats.sentBytes += result.entries.size();
            local_stats.fullExportBytes += cache.exportByteSize();
            ByteWriter w;
            result.encode(w);
            bool sent;
            {
                std::lock_guard<std::mutex> lock(send_mutex);
                sent = sendFrame(sock, MessageType::Result,
                                 w.view());
            }
            if (!sent) {
                if (error)
                    *error =
                        "sending result failed (run finished or "
                        "coordinator gone)";
                return WorkerOutcome::ConnectionLost;
            }
        }
    };

    bool first_connect = true;
    for (;;) {
        bool stopped = false;
        Socket sock = connectWithBudget(
            config,
            first_connect ? config.connectBudgetMs
                          : config.reconnectBudgetMs,
            stopped, error);
        if (stopped)
            return finish(WorkerOutcome::Drained);
        if (!sock.valid())
            return finish(first_connect
                              ? WorkerOutcome::ConnectFailed
                              : WorkerOutcome::ConnectionLost);
        if (!first_connect)
            ++local_stats.reconnects;
        first_connect = false;

        const WorkerOutcome outcome = runSession(sock);
        if (outcome != WorkerOutcome::ConnectionLost ||
            config.reconnectBudgetMs <= 0)
            return finish(outcome);
        if (config.stopRequested && config.stopRequested())
            return finish(WorkerOutcome::Drained);
        // Reconnect across the outage: fresh connection, fresh
        // Hello, fresh delta state (the coordinator may have
        // restarted with an empty cache).
        sent_keys.clear();
    }
}

} // namespace net
} // namespace penelope
