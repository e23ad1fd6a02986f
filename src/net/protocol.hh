/**
 * @file
 * The coordinator/worker wire protocol.
 *
 * Length-prefixed frames with a versioned, checksummed binary
 * header, payloads encoded with the same ByteWriter/ByteReader
 * machinery the result cache uses (explicit little-endian, decoders
 * validate everything).  The design rules mirror the cache's:
 * a corrupt, truncated or version-mismatched frame is *rejected
 * cleanly* (the connection is abandoned, the work is reassigned),
 * never trusted and never fatal to the run.
 *
 * Frame layout (32-byte header, then the payload):
 *
 *   u32 magic      'PNLP'
 *   u32 version    kProtocolVersion (foreign versions rejected)
 *   u32 type       MessageType
 *   u32 flags      sender capability bits (kCapMetrics)
 *   u64 length     payload bytes (bounded by kMaxFramePayload)
 *   u64 checksum   murmur3_128(payload, seed = type).lo
 *
 * Every peer speaks the whole protocol: heartbeats and delta entry
 * streams are unconditional, and a peer of another version is
 * rejected at its first frame header -- the one version gate.  The
 * one negotiated feature is kCapMetrics, which only decides whether
 * heartbeats are acknowledged (the worker's round-trip series).
 * The checksum excludes the flags word, so a corrupted capability
 * bit can only switch those acks, never change a statistic.
 *
 * Worker conversation:
 *
 *   worker -> coordinator   Hello      (host CPUs)
 *   coordinator -> worker   Assign     (slice index + ShardPlan)
 *   worker -> coordinator   Heartbeat  repeated while the slice runs
 *   coordinator -> worker   HeartbeatAck  [kCapMetrics] per beat
 *   worker -> coordinator   Result     (slice index, the entries not
 *                                      yet sent on this connection)
 *   ... Assign/Result repeat ...
 *   coordinator -> worker   Shutdown
 *
 * A connection whose first frame is not a Hello is dropped.
 *
 * The Result entry bytes are exactly a
 * ResultCache::exportToBytes() stream -- the same merge-ready
 * format `--shard` writes to disk -- restricted to the entries not
 * yet sent on that connection, so each entry crosses a connection
 * once; a duplicate completion (a reassigned slice finishing twice)
 * deduplicates on import by content-addressing, for free.
 */

#ifndef PENELOPE_NET_PROTOCOL_HH
#define PENELOPE_NET_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "core/shardplan.hh"
#include "net/socket.hh"

namespace penelope {
namespace net {

inline constexpr std::uint32_t kProtocolMagic = 0x504e4c50; // PNLP
inline constexpr std::uint32_t kProtocolVersion = 5;

/** Serialized frame header size in bytes. */
inline constexpr std::size_t kFrameHeaderBytes = 32;

/** Upper bound on one frame's payload (a shard entry stream for a
 *  full --all run is well under 1 MB; 1 GiB flags corruption, not
 *  configuration). */
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/** Capability bit carried in the frame header flags word: the
 *  coordinator answers each Heartbeat with a HeartbeatAck, which
 *  the worker times as net.heartbeat_rtt_us.  A coordinator sets
 *  it only while its registry records; without it, heartbeats go
 *  unacknowledged. */
inline constexpr std::uint32_t kCapMetrics = 1u << 3;

/** Everything this binary implements. */
inline constexpr std::uint32_t kCompiledCapabilities = kCapMetrics;

/** Everything this binary currently advertises: the compiled set
 *  minus any masked bits (setCapabilityMaskForTest). */
std::uint32_t localCapabilities();

/** Advertise kCompiledCapabilities & ~mask, so a caller can run
 *  without telemetry (0 restores). */
void setCapabilityMaskForTest(std::uint32_t mask);

enum class MessageType : std::uint32_t
{
    Hello = 1,
    Assign = 2,
    Result = 3,
    Shutdown = 4,
    Heartbeat = 5,
    HeartbeatAck = 10,
    // 6 and 8 (a retired job submission and its updates), 7 and 9
    // (retired job control) and 11 and 12 (a retired metrics query)
    // stay unassigned, so they fail the header check like any
    // unknown type.
};

/** One decoded frame. */
struct Frame
{
    MessageType type = MessageType::Hello;
    std::uint32_t flags = 0; ///< sender capability bits
    std::string payload;
};

/** Outcome of recvFrame(). */
enum class RecvStatus
{
    Ok,      ///< frame received and verified
    Closed,  ///< peer closed / receive failed / deadline / abort
    Corrupt, ///< bad magic, foreign version, length or checksum
};

/** Serialize a frame (header + payload) into one byte string. */
std::string encodeFrame(MessageType type, std::string_view payload,
                        std::uint32_t flags = localCapabilities());

/** Send one frame; false on any socket error.  Consults the
 *  process FaultInjector (faultinject.hh) when enabled. */
bool sendFrame(Socket &sock, MessageType type,
               std::string_view payload,
               std::uint32_t flags = localCapabilities());

/**
 * Receive and verify one frame.  @p timeout_ms bounds the wait for
 * the *header* and again for the payload (negative = forever);
 * @p abort is consulted while waiting (see Socket::recvAll).
 */
RecvStatus recvFrame(Socket &sock, Frame &frame,
                     int timeout_ms = -1,
                     const AbortFn &abort = {});

// ------------------------------------------------ message payloads
//
// Every message has an encode()/decode() pair in ByteWriter/
// ByteReader form; decode() validates and returns false on any
// inconsistency.

/** worker -> coordinator: introduction.  Sent again after every
 *  reconnect; the coordinator treats a repeated Hello on one
 *  connection as idempotent. */
struct HelloMessage
{
    std::uint32_t hostCpus = 0; ///< worker hardware threads

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

/** coordinator -> worker: one slice of the plan. */
struct AssignMessage
{
    std::uint32_t sliceIndex = 0;
    ShardPlan plan;

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

/** worker -> coordinator: a completed slice. */
struct ResultMessage
{
    std::uint32_t sliceIndex = 0;
    double simSeconds = 0.0; ///< worker-side wall time for the slice
    std::string entries;     ///< ResultCache::exportNewEntries
                             ///< stream (new on this connection)

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

/** worker -> coordinator: proof of life while a slice runs.  A
 *  worker that stops heartbeating past the coordinator's deadline
 *  forfeits the slice long before the slice timeout -- the
 *  hung-but-connected case TCP never surfaces. */
struct HeartbeatMessage
{
    std::uint32_t sliceIndex = 0;
    std::uint64_t sequence = 0; ///< monotonic per assignment

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

/** coordinator -> worker [kCapMetrics]: echo of one heartbeat.
 *  The worker matches `sequence` to its send time for its
 *  net.heartbeat_rtt_us series. */
struct HeartbeatAckMessage
{
    std::uint64_t sequence = 0;

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

} // namespace net
} // namespace penelope

#endif // PENELOPE_NET_PROTOCOL_HH
