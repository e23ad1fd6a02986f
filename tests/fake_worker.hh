/**
 * @file
 * Misbehaving workers for the coordinator tests.
 *
 * Each fake speaks the worker side of the protocol by hand: it sends
 * a Hello, takes an Assign, and then fails in one scripted way --
 * closing the connection, going silent, answering with a corrupt or
 * cut-off Result frame, or heartbeating past the coordinator's
 * deadline before answering with real entries.  The production
 * worker (src/net/worker.cc) carries no such behaviour: every
 * socket-level fault is scripted here, as raw frame bytes.
 */

#ifndef PENELOPE_TESTS_FAKE_WORKER_HH
#define PENELOPE_TESTS_FAKE_WORKER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>

#include "core/resultcache.hh"
#include "core/shardplan.hh"
#include "net/protocol.hh"
#include "trace/workload.hh"

namespace penelope {
namespace fake {

/** What a fake worker saw of its conversation. */
struct Report
{
    bool assigned = false; ///< took at least one Assign
    bool hungUp = false;   ///< the coordinator closed the connection
    bool shutdown = false; ///< released with a Shutdown frame
    unsigned slicesRun = 0;
};

/** Connect to the coordinator on @p port and send a Hello. */
inline net::Socket
introduce(std::uint16_t port)
{
    std::string error;
    net::Socket sock = net::Socket::connectTo("127.0.0.1", port, &error);
    if (sock.valid() && !net::sendFrame(sock, net::MessageType::Hello, {}))
        sock.close();
    return sock;
}

/**
 * Wait up to @p timeout_ms for the next Assign or Shutdown,
 * skipping heartbeat acks.  Returns false when the connection ends
 * (report.hungUp), a Shutdown arrives (report.shutdown) or nothing
 * arrives in time.
 */
inline bool
nextAssign(net::Socket &sock, net::AssignMessage &assign, Report &report,
           int timeout_ms = 60'000)
{
    for (;;) {
        net::Frame frame;
        if (net::recvFrame(sock, frame, timeout_ms) !=
            net::RecvStatus::Ok) {
            report.hungUp = true;
            return false;
        }
        if (frame.type == net::MessageType::HeartbeatAck)
            continue;
        if (frame.type == net::MessageType::Shutdown) {
            report.shutdown = true;
            return false;
        }
        ByteReader r(frame.payload);
        if (frame.type != net::MessageType::Assign || !assign.decode(r))
            return false;
        report.assigned = true;
        return true;
    }
}

/** Take one assignment, then drop the connection without replying:
 *  a worker killed mid-slice. */
inline Report
closeAfterAssign(std::uint16_t port)
{
    Report report;
    net::Socket sock = introduce(port);
    net::AssignMessage assign;
    if (sock.valid())
        nextAssign(sock, assign, report);
    return report;
}

/** Wait up to @p timeout_ms for the coordinator to hang up,
 *  recording it in @p report. */
inline void
awaitHangUp(net::Socket &sock, Report &report, int timeout_ms = 10'000)
{
    net::Frame frame;
    report.hungUp =
        net::recvFrame(sock, frame, timeout_ms) != net::RecvStatus::Ok;
}

/** The Result frame a worker would send for @p assign with no
 *  entries. */
inline std::string
emptyResultFrame(const net::AssignMessage &assign)
{
    net::ResultMessage result;
    result.sliceIndex = assign.sliceIndex;
    ByteWriter w;
    result.encode(w);
    return net::encodeFrame(net::MessageType::Result, w.view());
}

/** Take one assignment and answer it with a Result frame whose
 *  checksum does not match its payload, then wait for the
 *  coordinator to hang up: a frame corrupted in transit. */
inline Report
corruptResultAfterAssign(std::uint16_t port)
{
    Report report;
    net::Socket sock = introduce(port);
    net::AssignMessage assign;
    if (!sock.valid() || !nextAssign(sock, assign, report))
        return report;
    std::string frame = emptyResultFrame(assign);
    frame[net::kFrameHeaderBytes - 1] ^= 0x01; // last checksum byte
    if (sock.sendAll(frame.data(), frame.size()))
        awaitHangUp(sock, report);
    return report;
}

/** Take one assignment, send its Result frame short of the last
 *  byte, and close: a worker that dies mid-send. */
inline Report
truncatedResultAfterAssign(std::uint16_t port)
{
    Report report;
    net::Socket sock = introduce(port);
    net::AssignMessage assign;
    if (!sock.valid() || !nextAssign(sock, assign, report))
        return report;
    const std::string frame = emptyResultFrame(assign);
    sock.sendAll(frame.data(), frame.size() - 1);
    return report;
}

/** Take one assignment, then go silent with the connection open
 *  until the coordinator hangs up (at most @p hold_ms): a worker
 *  hung mid-slice, which only the heartbeat deadline catches. */
inline Report
silentAfterAssign(std::uint16_t port, int hold_ms)
{
    Report report;
    net::Socket sock = introduce(port);
    net::AssignMessage assign;
    if (!sock.valid() || !nextAssign(sock, assign, report))
        return report;
    // Nothing is owed to a silent worker, so the one thing that can
    // end this wait early is the coordinator closing the connection.
    const auto t0 = std::chrono::steady_clock::now();
    net::Frame frame;
    report.hungUp =
        net::recvFrame(sock, frame, hold_ms) == net::RecvStatus::Closed &&
        std::chrono::steady_clock::now() - t0 <
            std::chrono::milliseconds(hold_ms);
    return report;
}

/**
 * Serve every assignment slowly but healthily: heartbeat every
 * @p beat_ms for @p hold_ms (longer than the coordinator's
 * heartbeat timeout), then run the slice and send its entries, until
 * the coordinator releases the worker.
 */
inline Report
slowHeartbeatingWorker(std::uint16_t port, const WorkloadSet &workload,
                       int hold_ms, int beat_ms)
{
    using Clock = std::chrono::steady_clock;
    Report report;
    net::Socket sock = introduce(port);
    ResultCache cache;
    std::unordered_set<Hash128, Hash128Hasher> sent_keys;
    net::AssignMessage assign;
    while (sock.valid() && nextAssign(sock, assign, report)) {
        const Clock::time_point until =
            Clock::now() + std::chrono::milliseconds(hold_ms);
        for (std::uint64_t seq = 1; Clock::now() < until; ++seq) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(beat_ms));
            net::HeartbeatMessage beat;
            beat.sliceIndex = assign.sliceIndex;
            beat.sequence = seq;
            ByteWriter w;
            beat.encode(w);
            if (!net::sendFrame(sock, net::MessageType::Heartbeat,
                                w.view()))
                return report;
        }
        if (!runPlanSlice(workload, assign.plan, assign.sliceIndex, 1,
                          nullptr, cache))
            return report;
        net::ResultMessage result;
        result.sliceIndex = assign.sliceIndex;
        cache.exportNewEntries(sent_keys, result.entries);
        ByteWriter w;
        result.encode(w);
        if (!net::sendFrame(sock, net::MessageType::Result, w.view()))
            return report;
        ++report.slicesRun;
    }
    return report;
}

} // namespace fake
} // namespace penelope

#endif // PENELOPE_TESTS_FAKE_WORKER_HH
