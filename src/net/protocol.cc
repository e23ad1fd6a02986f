#include "protocol.hh"

#include <atomic>

#include "obs/metrics.hh"

namespace penelope {
namespace net {

namespace {

/** File-scope handles: every frame on every connection passes
 *  through sendFrame/recvFrame. */
const obs::Counter g_framesSent =
    obs::Registry::instance().counter("net.frames_sent");
const obs::Counter g_bytesSent =
    obs::Registry::instance().counter("net.bytes_sent", "bytes");
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
    const std::string frame = encodeFrame(type, payload, flags);
    g_framesSent.add();
    g_bytesSent.add(frame.size());
    return sock.sendAll(frame.data(), frame.size());
}

RecvStatus
recvFrame(Socket &sock, Frame &frame, int timeout_ms,
          const AbortFn &abort)
{
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
    return RecvStatus::Ok;
}

// ------------------------------------------------ message payloads

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
}

bool
HeartbeatMessage::decode(ByteReader &r)
{
    sliceIndex = r.u32();
    sequence = r.u64();
    return r.ok() && r.atEnd();
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
