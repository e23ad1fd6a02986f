/**
 * @file
 * Deterministic fault injection for the net subsystem.
 *
 * Every failure mode the service layer claims to survive -- lost
 * frames, delayed frames, corrupted bytes, truncated streams,
 * half-closed connections, a peer that stalls mid-conversation --
 * is producible on demand through this seam, so the test suite
 * *scripts* failures instead of hoping to observe them.  The seam
 * is compiled in always and costs one predicate per frame when
 * disabled; configure() enables it, from a FaultConfig built in code
 * or parsed from a spec string.
 *
 * Determinism: every decision is a pure function of
 * (seed, connection id, frame-op index), via the same splitmix /
 * murmur mixing the rest of the codebase uses.  Replaying a seed
 * replays the schedule for each connection regardless of thread
 * interleaving; different connections draw independent schedules.
 *
 * Spec grammar (comma-separated, all fields optional):
 *
 *   seed=N            schedule seed (default 1)
 *   drop=P            swallow a frame send with probability P
 *   flip=P            flip one payload byte (peer must reject)
 *   truncate=P        send a prefix, then half-close
 *   halfclose=P       send intact, then shut down the write side
 *   delay=P:MS        sleep MS before the operation
 *   stall-after=N     per connection: block (stallMs) and fail
 *                     every send after the N-th frame op
 *   stall-ms=MS       how long a stalled send blocks (default
 *                     3000; the point is to outlive a heartbeat
 *                     deadline, not to hang a test)
 *
 * Probabilities are in [0, 1].  Example:
 *
 *   seed=7,drop=0.03,flip=0.02,delay=0.05:15
 */

#ifndef PENELOPE_NET_FAULTINJECT_HH
#define PENELOPE_NET_FAULTINJECT_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace penelope {
namespace net {

/** Parsed fault schedule parameters. */
struct FaultConfig
{
    std::uint64_t seed = 1;
    double dropP = 0.0;
    double flipP = 0.0;
    double truncateP = 0.0;
    double halfCloseP = 0.0;
    double delayP = 0.0;
    int delayMs = 20;
    std::uint64_t stallAfterOps = 0; ///< 0 = never stall
    int stallMs = 3'000;

    /** True when any fault can ever fire. */
    bool active() const;

    /** Parse the spec grammar above; false (with @p error filled)
     *  on malformed input.  An empty spec is valid and inert. */
    static bool parse(std::string_view spec, FaultConfig &out,
                      std::string *error);
};

/** What a faulted operation should do (see protocol.cc). */
enum class FaultAction : std::uint8_t
{
    None,
    Drop,      ///< pretend the send succeeded; send nothing
    Flip,      ///< corrupt one byte of the encoded frame
    Truncate,  ///< send a strict prefix, then half-close
    HalfClose, ///< send intact, then shut down the write side
    Delay,     ///< sleep, then proceed normally
    Stall,     ///< block for stallMs, then fail the operation
};

/** Running tally of fired faults (process-wide, so a test can
 *  assert the chaos actually happened). */
struct FaultStats
{
    std::uint64_t drops = 0;
    std::uint64_t flips = 0;
    std::uint64_t truncates = 0;
    std::uint64_t halfCloses = 0;
    std::uint64_t delays = 0;
    std::uint64_t stalls = 0;

    std::uint64_t
    total() const
    {
        return drops + flips + truncates + halfCloses + delays +
            stalls;
    }
};

/**
 * The process-wide injector.  Disabled (and free of side effects)
 * until configure() is called; every frame-level send/receive in
 * protocol.cc consults it.
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Install @p config and enable the schedule. */
    void configure(const FaultConfig &config);

    /** Drop back to the inert state (tests restore this). */
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    const FaultConfig &config() const { return config_; }

    /**
     * Decide the fate of one *send* of @p frameBytes bytes -- the
     * op_index-th frame operation on connection @p conn_id.  For
     * Flip/Truncate, @p cut is the affected byte offset (in
     * [header-size, frameBytes) for flips so length fields stay
     * plausible, [1, frameBytes) for truncations).
     */
    FaultAction sendAction(std::uint64_t conn_id,
                           std::uint64_t op_index,
                           std::size_t frameBytes,
                           std::size_t &cut);

    /** Decide a receive-side delay (receives only ever delay: the
     *  send side already covers loss and corruption). */
    FaultAction recvAction(std::uint64_t conn_id,
                           std::uint64_t op_index);

    /** Count a fired fault. */
    void note(FaultAction action);

    FaultStats stats() const;

  private:
    FaultInjector() = default;

    std::atomic<bool> enabled_{false};
    FaultConfig config_;

    std::atomic<std::uint64_t> drops_{0};
    std::atomic<std::uint64_t> flips_{0};
    std::atomic<std::uint64_t> truncates_{0};
    std::atomic<std::uint64_t> halfCloses_{0};
    std::atomic<std::uint64_t> delays_{0};
    std::atomic<std::uint64_t> stalls_{0};
};

} // namespace net
} // namespace penelope

#endif // PENELOPE_NET_FAULTINJECT_HH
