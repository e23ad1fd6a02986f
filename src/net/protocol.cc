#include "protocol.hh"

#include <chrono>
#include <thread>

#include "net/faultinject.hh"
#include "obs/metrics.hh"

namespace penelope {
namespace net {

namespace {

/** File-scope handles: every frame on every connection passes
 *  through sendFrame/recvFrame, so these are the per-worker
 *  "frame series" the coordinator aggregates. */
const obs::Counter g_framesSent =
    obs::Registry::instance().counter("net.frames_sent");
const obs::Counter g_bytesSent =
    obs::Registry::instance().counter("net.bytes_sent", "bytes");
const obs::Counter g_framesRecv =
    obs::Registry::instance().counter("net.frames_recv");
const obs::Counter g_bytesRecv =
    obs::Registry::instance().counter("net.bytes_recv", "bytes");
const obs::Counter g_framesCorrupt =
    obs::Registry::instance().counter("net.frames_corrupt");

std::atomic<std::uint32_t> g_capMask{0};

std::uint64_t
payloadChecksum(MessageType type, std::string_view payload)
{
    return murmur3_128(payload.data(), payload.size(),
                       static_cast<std::uint64_t>(type))
        .lo;
}

bool
knownType(std::uint32_t type)
{
    switch (static_cast<MessageType>(type)) {
      case MessageType::Hello:
      case MessageType::Assign:
      case MessageType::Result:
      case MessageType::Shutdown:
      case MessageType::Heartbeat:
      case MessageType::HeartbeatAck:
        return true;
    }
    return false;
}

} // namespace

std::uint32_t
localCapabilities()
{
    return kCompiledCapabilities &
        ~g_capMask.load(std::memory_order_relaxed);
}

void
setCapabilityMaskForTest(std::uint32_t mask)
{
    g_capMask.store(mask, std::memory_order_relaxed);
}

std::string
encodeFrame(MessageType type, std::string_view payload,
            std::uint32_t flags)
{
    ByteWriter w;
    w.u32(kProtocolMagic);
    w.u32(kProtocolVersion);
    w.u32(static_cast<std::uint32_t>(type));
    w.u32(flags);
    w.u64(payload.size());
    w.u64(payloadChecksum(type, payload));
    w.bytes(payload.data(), payload.size());
    return w.data();
}

bool
sendFrame(Socket &sock, MessageType type, std::string_view payload,
          std::uint32_t flags)
{
    std::string frame = encodeFrame(type, payload, flags);
    g_framesSent.add();
    g_bytesSent.add(frame.size());

    FaultInjector &injector = FaultInjector::instance();
    if (injector.enabled()) {
        std::size_t cut = 0;
        const FaultAction action = injector.sendAction(
            sock.connectionId(), sock.nextSendOp(), frame.size(),
            cut);
        injector.note(action);
        switch (action) {
          case FaultAction::Drop:
            // The frame vanishes but the sender believes it went
            // out -- the peer's deadline machinery must recover.
            return true;
          case FaultAction::Flip:
            frame[cut] = static_cast<char>(frame[cut] ^ 0x40);
            break;
          case FaultAction::Truncate: {
            // A strict prefix, then EOF on the write side: the
            // peer sees a mid-frame stream end.
            const bool sent = sock.sendAll(frame.data(), cut);
            sock.shutdownWrite();
            return sent;
          }
          case FaultAction::HalfClose: {
            const bool sent =
                sock.sendAll(frame.data(), frame.size());
            sock.shutdownWrite();
            return sent;
          }
          case FaultAction::Delay:
            std::this_thread::sleep_for(std::chrono::milliseconds(
                injector.config().delayMs));
            break;
          case FaultAction::Stall:
            // A peer that is alive at the TCP level but no longer
            // talking: block (bounded), then report failure.
            std::this_thread::sleep_for(std::chrono::milliseconds(
                injector.config().stallMs));
            return false;
          case FaultAction::None:
            break;
        }
    }

    return sock.sendAll(frame.data(), frame.size());
}

RecvStatus
recvFrame(Socket &sock, Frame &frame, int timeout_ms,
          const AbortFn &abort)
{
    FaultInjector &injector = FaultInjector::instance();
    if (injector.enabled()) {
        const FaultAction action = injector.recvAction(
            sock.connectionId(), sock.nextRecvOp());
        if (action == FaultAction::Delay) {
            injector.note(action);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                injector.config().delayMs));
        }
    }

    char header[kFrameHeaderBytes];
    if (!sock.recvAll(header, sizeof(header), timeout_ms, abort))
        return RecvStatus::Closed;

    ByteReader r(std::string_view(header, sizeof(header)));
    const std::uint32_t magic = r.u32();
    const std::uint32_t version = r.u32();
    const std::uint32_t type = r.u32();
    const std::uint32_t flags = r.u32();
    const std::uint64_t length = r.u64();
    const std::uint64_t checksum = r.u64();

    if (magic != kProtocolMagic || version != kProtocolVersion ||
        !knownType(type) || length > kMaxFramePayload) {
        g_framesCorrupt.add();
        return RecvStatus::Corrupt;
    }

    frame.type = static_cast<MessageType>(type);
    frame.flags = flags;
    frame.payload.resize(static_cast<std::size_t>(length));
    if (length > 0 &&
        !sock.recvAll(frame.payload.data(), frame.payload.size(),
                      timeout_ms, abort))
        return RecvStatus::Closed;

    if (checksum != payloadChecksum(frame.type, frame.payload)) {
        g_framesCorrupt.add();
        return RecvStatus::Corrupt;
    }
    g_framesRecv.add();
    g_bytesRecv.add(kFrameHeaderBytes + frame.payload.size());
    return RecvStatus::Ok;
}

// ------------------------------------------------ message payloads

void
HelloMessage::encode(ByteWriter &w) const
{
    w.u32(hostCpus);
}

bool
HelloMessage::decode(ByteReader &r)
{
    hostCpus = r.u32();
    return r.ok() && r.atEnd();
}

void
AssignMessage::encode(ByteWriter &w) const
{
    w.u32(sliceIndex);
    plan.encode(w);
}

bool
AssignMessage::decode(ByteReader &r)
{
    sliceIndex = r.u32();
    if (!r.ok() || !plan.decode(r) || !r.atEnd())
        return false;
    return sliceIndex < plan.sliceCount;
}

void
ResultMessage::encode(ByteWriter &w) const
{
    w.u32(sliceIndex);
    w.f64(simSeconds);
    w.u64(entries.size());
    w.bytes(entries.data(), entries.size());
}

bool
ResultMessage::decode(ByteReader &r)
{
    sliceIndex = r.u32();
    simSeconds = r.f64();
    const std::uint64_t size = r.u64();
    if (!r.ok() || size > kMaxFramePayload)
        return false;
    const std::string_view bytes =
        r.bytesView(static_cast<std::size_t>(size));
    if (!r.ok() || !r.atEnd())
        return false;
    entries.assign(bytes);
    return simSeconds >= 0.0;
}

void
HeartbeatMessage::encode(ByteWriter &w) const
{
    w.u32(sliceIndex);
    w.u64(sequence);
    w.u64(metrics.size());
    w.bytes(metrics.data(), metrics.size());
}

bool
HeartbeatMessage::decode(ByteReader &r)
{
    sliceIndex = r.u32();
    sequence = r.u64();
    const std::uint64_t size = r.u64();
    if (!r.ok() || size > kMaxFramePayload)
        return false;
    const std::string_view bytes =
        r.bytesView(static_cast<std::size_t>(size));
    if (!r.ok() || !r.atEnd())
        return false;
    metrics.assign(bytes);
    return true;
}

void
HeartbeatAckMessage::encode(ByteWriter &w) const
{
    w.u64(sequence);
}

bool
HeartbeatAckMessage::decode(ByteReader &r)
{
    sequence = r.u64();
    return r.ok() && r.atEnd();
}

} // namespace net
} // namespace penelope
