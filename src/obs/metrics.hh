/**
 * @file
 * Zero-cost-when-off metrics registry.
 *
 * A process-wide registry of named counters, gauges and
 * power-of-two histograms, built for instrumenting hot loops that
 * must stay bit-identical and fast whether observability is on or
 * off:
 *
 *  - Counters and histograms write to one process-wide array of
 *    `std::atomic<uint64_t>` slots with a relaxed fetch_add.  The
 *    traffic is small (an `--all --stride 4 --uops 10000` run
 *    emits ~90k times), so every thread shares the one array; a
 *    scrape reads it, and totals are exact.
 *  - Gauges are a second array of process-global atomics
 *    (set/add): "last write wins".
 *  - The *runtime-off* fast path is one relaxed atomic-bool load
 *    per site; until something enables the registry (a `--metrics-*`
 *    flag, `--trace-out`, or a metrics-capable service peer) no
 *    slot is ever touched.
 *  - The *compile-out* path (`PENELOPE_NO_OBS`) turns every
 *    emission body into nothing; registration still works so the
 *    CLI surface (`--metrics-dump`, `--version`) stays wired.
 *
 * Emission never writes to stdout and never touches an RNG
 * stream: the printed statistics of any run are byte-identical
 * with observability on, off, or compiled out (CI asserts this).
 *
 * Histogram buckets are consecutive powers of two: bucket 0 holds
 * exactly the value 0 and bucket b (1..64) holds values in
 * [2^(b-1), 2^b) -- i.e. bucket(v) == std::bit_width(v).  One
 * extra slot accumulates the raw sum so scrapes can report means.
 */

#ifndef PENELOPE_OBS_METRICS_HH
#define PENELOPE_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace penelope {

class ByteWriter;
class ByteReader;

namespace obs {

enum class MetricKind : std::uint8_t
{
    Counter = 0,
    Gauge = 1,
    Histogram = 2,
};

/** True when the emission paths are compiled in at all. */
#ifdef PENELOPE_NO_OBS
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/** Power-of-two histogram geometry: buckets 0..64 plus a sum
 *  slot.  bucketIndex(0) == 0; bucketIndex(v) == bit_width(v). */
inline constexpr std::size_t kHistBuckets = 65;
inline constexpr std::size_t kHistSlots = kHistBuckets + 1;

inline constexpr std::size_t
bucketIndex(std::uint64_t v)
{
    return static_cast<std::size_t>(std::bit_width(v));
}

/** Inclusive upper bound of bucket @p b. */
inline constexpr std::uint64_t
bucketBound(std::size_t b)
{
    return b == 0 ? 0
        : b >= 64 ? ~std::uint64_t{0}
                  : (std::uint64_t{1} << b) - 1;
}

/** Size of the process-wide slot array; registration fails fast
 *  (std::abort) if the process ever outgrows it. */
inline constexpr std::size_t kSlotCapacity = 4096;

/** Default-constructed handles point at a sacrificial sink (slots
 *  [0, kHistSlots) for counters and histograms, gauge 0 for
 *  gauges) so an uninitialized add/record/set is harmless instead
 *  of out of bounds or aliasing a registered metric; real
 *  allocation starts after it. */
inline constexpr std::uint32_t kInvalidSlot = 0;

namespace detail {

/** Runtime on/off switch, read relaxed on every emission. */
inline std::atomic<bool> g_enabled{false};

/** Every counter and histogram slot of the process. */
inline std::array<std::atomic<std::uint64_t>, kSlotCapacity>
    g_slots{};

inline void
bump(std::uint32_t slot, std::uint64_t n)
{
    g_slots[slot].fetch_add(n, std::memory_order_relaxed);
}

} // namespace detail

/** One relaxed load: is emission enabled right now?  Use to skip
 *  ancillary work (clock reads) that only feeds metrics. */
inline bool
enabled()
{
#ifdef PENELOPE_NO_OBS
    return false;
#else
    return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/** Microseconds on the process-wide monotonic clock every span
 *  and latency histogram is stamped from (steady_clock anchored
 *  at first use). */
std::uint64_t monotonicMicros();

/** Monotonically increasing event counter.  add() is the hot
 *  path: one relaxed bool load, one relaxed fetch_add. */
class Counter
{
  public:
    Counter() = default;

    void
    add(std::uint64_t n = 1) const
    {
#ifndef PENELOPE_NO_OBS
        if (!detail::g_enabled.load(std::memory_order_relaxed))
            return;
        detail::bump(slot_, n);
#else
        (void)n;
#endif
    }

  private:
    friend class Registry;
    explicit Counter(std::uint32_t slot) : slot_(slot) {}
    std::uint32_t slot_ = kInvalidSlot;
};

/** Power-of-two-bucketed value distribution (durations in us,
 *  sizes in bytes, ...).  record() bumps one bucket and the sum. */
class Histogram
{
  public:
    Histogram() = default;

    void
    record(std::uint64_t v) const
    {
#ifndef PENELOPE_NO_OBS
        if (!detail::g_enabled.load(std::memory_order_relaxed))
            return;
        detail::bump(base_ + static_cast<std::uint32_t>(
                                 bucketIndex(v)),
                     1);
        detail::bump(base_ + kHistBuckets, v);
#else
        (void)v;
#endif
    }

  private:
    friend class Registry;
    explicit Histogram(std::uint32_t base) : base_(base) {}
    std::uint32_t base_ = kInvalidSlot;
};

/** Process-global instantaneous value (workers connected, jobs
 *  active); set/add are rare control-plane events. */
class Gauge
{
  public:
    Gauge() = default;

    void set(std::int64_t v) const;
    void add(std::int64_t d) const;

  private:
    friend class Registry;
    explicit Gauge(std::uint32_t index) : index_(index) {}
    std::uint32_t index_ = kInvalidSlot;
};

/** One scraped metric: name, kind, unit and its merged value
 *  slots (1 for counters/gauges, kHistSlots for histograms;
 *  gauges carry the int64 bit pattern). */
struct SnapshotMetric
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::string unit;
    std::vector<std::uint64_t> values;

    std::uint64_t
    scalar() const
    {
        return values.empty() ? 0 : values[0];
    }

    /** Histogram observation count (sum over buckets). */
    std::uint64_t count() const;
    /** Histogram raw sum slot. */
    std::uint64_t sum() const;

    bool operator==(const SnapshotMetric &) const = default;
};

/** A merged point-in-time view of every registered metric, sorted
 *  by name.  This is what --metrics-dump prints, what workers
 *  piggyback on heartbeats, and what the coordinator aggregates. */
struct Snapshot
{
    std::vector<SnapshotMetric> metrics;

    const SnapshotMetric *find(std::string_view name) const;

    void encode(ByteWriter &w) const;
    /** Strict decode: any truncation or malformed field -- a
     *  name outside [a-z0-9_.], a unit holding whitespace or a
     *  control byte -- clears the reader and returns false. */
    static bool decode(ByteReader &r, Snapshot &out);

    std::string encodeToBytes() const;
    static bool decodeFromBytes(std::string_view bytes,
                                Snapshot &out);

    bool operator==(const Snapshot &) const = default;
};

/** The process-wide registry.  Registration is cold (mutexed map
 *  by name, idempotent); emission goes through the handles. */
class Registry
{
  public:
    static Registry &instance();

    Counter counter(const std::string &name,
                    const std::string &unit = "1",
                    const std::string &help = "");
    Gauge gauge(const std::string &name,
                const std::string &unit = "1",
                const std::string &help = "");
    Histogram histogram(const std::string &name,
                        const std::string &unit = "1",
                        const std::string &help = "");

    /** Turn runtime emission on/off (relaxed; takes effect on the
     *  next site hit).  Off never deallocates: re-enabling keeps
     *  accumulated values. */
    void setEnabled(bool on);

    /** Read every slot and gauge into a name-sorted snapshot. */
    Snapshot scrape() const;

  private:
    Registry() = default;
};

/** Scoped enable: tests and benchmarks flip the registry on for a
 *  region and restore the previous state on exit. */
class ScopedEnable
{
  public:
    explicit ScopedEnable(bool on = true)
        : prev_(enabled())
    {
        Registry::instance().setEnabled(on);
    }
    ~ScopedEnable() { Registry::instance().setEnabled(prev_); }
    ScopedEnable(const ScopedEnable &) = delete;
    ScopedEnable &operator=(const ScopedEnable &) = delete;

  private:
    bool prev_;
};

} // namespace obs
} // namespace penelope

/** Handle memoized per call site (one static-init guard; fine for
 *  warm-but-not-hot paths -- hot loops keep member or file-scope
 *  handles instead). */
#define PENELOPE_OBS_COUNTER(name, unit)                           \
    ([]() -> const penelope::obs::Counter & {                      \
        static const penelope::obs::Counter c =                    \
            penelope::obs::Registry::instance().counter(name,      \
                                                        unit);     \
        return c;                                                  \
    }())

#define PENELOPE_OBS_HISTOGRAM(name, unit)                         \
    ([]() -> const penelope::obs::Histogram & {                    \
        static const penelope::obs::Histogram h =                  \
            penelope::obs::Registry::instance().histogram(name,    \
                                                          unit);   \
        return h;                                                  \
    }())

#endif // PENELOPE_OBS_METRICS_HH
