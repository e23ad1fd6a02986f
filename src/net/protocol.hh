/**
 * @file
 * The coordinator/worker/client wire protocol.
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
 * Every peer speaks the whole protocol: heartbeats, delta entry
 * streams and job control are unconditional, and a peer of another
 * version is rejected at its first frame.  The one negotiated
 * feature is telemetry (kCapMetrics), which only decides whether
 * heartbeats carry metric snapshots and are acknowledged.  The
 * checksum excludes the flags word, so a corrupted capability bit
 * can only switch that telemetry, never change a statistic.
 *
 * Worker conversation:
 *
 *   worker -> coordinator   Hello      (version echo, host CPUs)
 *   coordinator -> worker   Assign     (slice index + ShardPlan)
 *   worker -> coordinator   Heartbeat  repeated while the slice runs
 *   worker -> coordinator   Result     (slice index, the entries not
 *                                      yet sent on this connection)
 *   ... Assign/Result repeat ...
 *   coordinator -> worker   Shutdown
 *
 * Client conversation:
 *
 *   client -> coordinator   SubmitJob  (a ShardPlan to run)
 *   coordinator -> client   JobUpdate  (accepted; then streamed on
 *                                      every state change, carrying
 *                                      the slice entry payloads as
 *                                      they land; the final update
 *                                      carries state Complete --
 *                                      or Partial with an explicit
 *                                      incomplete-slice manifest)
 *   client -> coordinator   JobStatus  (poll/resync a job by id)
 *   client -> coordinator   CancelJob
 *
 * The Result/JobUpdate entry bytes are exactly a
 * ResultCache::exportToBytes() stream -- the same merge-ready
 * format `--shard` writes to disk -- so duplicate completions (a
 * reassigned slice finishing twice, a client resyncing) always
 * deduplicate on import by content-addressing, for free.
 */

#ifndef PENELOPE_NET_PROTOCOL_HH
#define PENELOPE_NET_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/shardplan.hh"
#include "net/socket.hh"

namespace penelope {
namespace net {

inline constexpr std::uint32_t kProtocolMagic = 0x504e4c50; // PNLP
inline constexpr std::uint32_t kProtocolVersion = 2;

/** Serialized frame header size in bytes. */
inline constexpr std::size_t kFrameHeaderBytes = 32;

/** Upper bound on one frame's payload (a shard entry stream for a
 *  full --all run is well under 1 MB; 1 GiB flags corruption, not
 *  configuration). */
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/** Capability bit carried in the frame header flags word: metric
 *  snapshots piggybacked on Heartbeat frames, answered with
 *  HeartbeatAck (worker-side RTT).  Without it, heartbeats carry
 *  an empty snapshot and go unacknowledged. */
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
    SubmitJob = 6,
    JobStatus = 7,
    JobUpdate = 8,
    CancelJob = 9,
    HeartbeatAck = 10,
    // 11 and 12 (a retired metrics query) stay unassigned, so
    // they fail the header check like any unknown type.
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
    std::uint32_t protocolVersion = kProtocolVersion;
    std::uint32_t hostCpus = 0; ///< worker hardware threads
    std::uint64_t capabilities = 0; ///< reserved (header flags are
                                    ///< authoritative)

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
    std::uint32_t hostCpus = 0;
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

    /** Opaque obs::Snapshot bytes for the coordinator's per-worker
     *  aggregation [kCapMetrics]; empty (length 0 on the wire) when
     *  telemetry is off. */
    std::string metrics;

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

/** coordinator -> worker [kCapMetrics]: echo of one heartbeat.
 *  The worker matches `sequence` to its send time for the
 *  net.heartbeat_rtt_us series that rides back in the next
 *  snapshot. */
struct HeartbeatAckMessage
{
    std::uint32_t sliceIndex = 0;
    std::uint64_t sequence = 0;

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

/** client -> coordinator: enqueue a sweep. */
struct SubmitJobMessage
{
    ShardPlan plan;

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

/** client -> coordinator: poll/resync one job. */
struct JobStatusMessage
{
    std::uint32_t jobId = 0;

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

/** client -> coordinator: abandon one job.  Pending
 *  slices are dropped; in-flight ones finish harmlessly. */
struct CancelJobMessage
{
    std::uint32_t jobId = 0;

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

/** Lifecycle of a submitted job (wire-stable values). */
enum class JobState : std::uint8_t
{
    Rejected = 0, ///< plan undecodable/unknown to the coordinator
    Accepted = 1,
    Running = 2,
    Complete = 3,
    Partial = 4, ///< finished degraded: see incompleteSlices
    Cancelled = 5,
};

/** True for states a job can never leave. */
bool jobStateFinal(JobState state);

/** coordinator -> client: job progress.  Streamed on
 *  every state change; `entries` carries the slice result payloads
 *  that landed since the previous update to this client (partial
 *  results render as they arrive), and the final update of a
 *  Complete/Partial job carries the job's full entry stream so a
 *  freshly (re)connected client still renders bit-identically. */
struct JobUpdateMessage
{
    std::uint32_t jobId = 0;
    JobState state = JobState::Accepted;
    std::uint32_t slicesDone = 0;
    std::uint32_t slicesTotal = 0;
    std::uint32_t retries = 0; ///< re-dispatches so far (informational)

    /** Slices abandoned after the retry budget: the explicit
     *  manifest of what a Partial job is missing. */
    std::vector<std::uint32_t> incompleteSlices;

    std::string entries; ///< ResultCache::exportToBytes stream

    void encode(ByteWriter &w) const;
    bool decode(ByteReader &r);
};

} // namespace net
} // namespace penelope

#endif // PENELOPE_NET_PROTOCOL_HH
