#include "obs/metrics.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "core/resultcache.hh"

namespace penelope {
namespace obs {
namespace {

/** One thread's slot array.  Only the owning thread writes; a
 *  scrape reads relaxed.  ~32 KiB apiece, reused via a free list
 *  when threads exit (the coordinator spawns a thread per
 *  connection -- shards must not leak with connection count). */
struct Shard
{
    std::array<std::atomic<std::uint64_t>, kSlotCapacity> slots{};
};

struct MetricDef
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::string unit;
    std::string help;
    std::uint32_t slot = kInvalidSlot; ///< shard base / gauge index
};

struct State
{
    mutable std::mutex mutex;
    std::vector<MetricDef> defs;
    std::map<std::string, std::size_t, std::less<>> byName;
    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<Shard *> freeShards;
    /** Totals merged out of exited threads' shards. */
    std::array<std::uint64_t, kSlotCapacity> retired{};
    /** First unallocated shard slot (after the sink region). */
    std::uint32_t nextSlot = kHistSlots;
    std::vector<std::atomic<std::int64_t>> gauges;
    std::uint32_t nextGauge = 0;

    State() : gauges(256) {}
};

State &
state()
{
    static State s;
    return s;
}

/** Retires the calling thread's shard when the thread exits:
 *  merge its slots into the retired totals, zero it, and hand it
 *  to the free list for the next thread. */
struct ShardReaper
{
    Shard *shard = nullptr;

    ~ShardReaper()
    {
        if (shard == nullptr)
            return;
        State &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        for (std::size_t i = 0; i < kSlotCapacity; ++i) {
            s.retired[i] +=
                shard->slots[i].load(std::memory_order_relaxed);
            shard->slots[i].store(0, std::memory_order_relaxed);
        }
        s.freeShards.push_back(shard);
        detail::t_slots = nullptr;
        shard = nullptr;
    }
};

thread_local bool t_retired = false;

std::size_t
slotCount(MetricKind kind)
{
    return kind == MetricKind::Histogram ? kHistSlots : 1;
}

std::uint32_t
registerMetric(MetricKind kind, const std::string &name,
               const std::string &unit, const std::string &help)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.byName.find(name);
    if (it != s.byName.end()) {
        const MetricDef &def = s.defs[it->second];
        if (def.kind != kind)
            std::abort(); // one name, one kind: a programming bug
        return def.slot;
    }
    MetricDef def;
    def.name = name;
    def.kind = kind;
    def.unit = unit;
    def.help = help;
    if (kind == MetricKind::Gauge) {
        if (s.nextGauge >= s.gauges.size())
            std::abort();
        def.slot = s.nextGauge++;
    } else {
        const std::size_t need = slotCount(kind);
        if (s.nextSlot + need > kSlotCapacity)
            std::abort();
        def.slot = s.nextSlot;
        s.nextSlot += static_cast<std::uint32_t>(need);
    }
    s.byName.emplace(name, s.defs.size());
    s.defs.push_back(def);
    return def.slot;
}

constexpr std::uint8_t kSnapshotVersion = 1;
constexpr std::size_t kMaxSnapshotMetrics = 4096;
constexpr std::size_t kMaxNameLen = 256;

/** A decoded name must use the charset every registered metric
 *  does, and a unit must hold no whitespace or control byte:
 *  snapshots arrive off the wire and render as text lines, where a
 *  newline, brace or space would forge series. */
bool
validName(std::string_view name)
{
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
            c == '_' || c == '.';
    });
}

bool
validUnit(std::string_view unit)
{
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        const auto u = static_cast<unsigned char>(c);
        return u > ' ' && u != 0x7f;
    });
}

} // namespace

namespace detail {

std::atomic<std::uint64_t> *
acquireShard()
{
    if (t_retired)
        return nullptr;
    State &s = state();
    Shard *shard = nullptr;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (!s.freeShards.empty()) {
            shard = s.freeShards.back();
            s.freeShards.pop_back();
        } else {
            s.shards.push_back(std::make_unique<Shard>());
            shard = s.shards.back().get();
        }
    }
    // The reaper's destructor runs at thread exit, after which any
    // further emission from this thread is dropped (t_retired).
    static thread_local ShardReaper reaper;
    reaper.shard = shard;
    t_retired = false;
    t_slots = shard->slots.data();
    struct RetireFlag
    {
        ~RetireFlag() { t_retired = true; }
    };
    static thread_local RetireFlag flag;
    return t_slots;
}

} // namespace detail

std::uint64_t
monotonicMicros()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point base = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            clock::now() - base)
            .count());
}

void
Gauge::set(std::int64_t v) const
{
#ifndef PENELOPE_NO_OBS
    if (!enabled())
        return;
    state().gauges[index_].store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
}

void
Gauge::add(std::int64_t d) const
{
#ifndef PENELOPE_NO_OBS
    if (!enabled())
        return;
    state().gauges[index_].fetch_add(d,
                                     std::memory_order_relaxed);
#else
    (void)d;
#endif
}

std::uint64_t
SnapshotMetric::count() const
{
    std::uint64_t n = 0;
    for (std::size_t b = 0;
         b < kHistBuckets && b < values.size(); ++b)
        n += values[b];
    return n;
}

std::uint64_t
SnapshotMetric::sum() const
{
    return values.size() == kHistSlots ? values[kHistBuckets] : 0;
}

const SnapshotMetric *
Snapshot::find(std::string_view name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
Snapshot::encode(ByteWriter &w) const
{
    w.u8(kSnapshotVersion);
    w.u32(static_cast<std::uint32_t>(metrics.size()));
    for (const auto &m : metrics) {
        w.u8(static_cast<std::uint8_t>(m.kind));
        w.u32(static_cast<std::uint32_t>(m.name.size()));
        w.bytes(m.name.data(), m.name.size());
        w.u32(static_cast<std::uint32_t>(m.unit.size()));
        w.bytes(m.unit.data(), m.unit.size());
        w.u32(static_cast<std::uint32_t>(m.values.size()));
        for (const std::uint64_t v : m.values)
            w.u64(v);
    }
}

bool
Snapshot::decode(ByteReader &r, Snapshot &out)
{
    out.metrics.clear();
    if (r.u8() != kSnapshotVersion) {
        r.fail();
        return false;
    }
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > kMaxSnapshotMetrics) {
        r.fail();
        return false;
    }
    out.metrics.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        SnapshotMetric m;
        const std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(
                       MetricKind::Histogram)) {
            r.fail();
            return false;
        }
        m.kind = static_cast<MetricKind>(kind);
        const std::uint32_t nameLen = r.u32();
        if (!r.ok() || nameLen == 0 || nameLen > kMaxNameLen) {
            r.fail();
            return false;
        }
        m.name = std::string(r.bytesView(nameLen));
        const std::uint32_t unitLen = r.u32();
        if (!r.ok() || unitLen > kMaxNameLen || !validName(m.name)) {
            r.fail();
            return false;
        }
        m.unit = std::string(r.bytesView(unitLen));
        const std::uint32_t nValues = r.u32();
        const std::size_t expect =
            m.kind == MetricKind::Histogram ? kHistSlots : 1;
        if (!r.ok() || nValues != expect || !validUnit(m.unit)) {
            r.fail();
            return false;
        }
        m.values.resize(nValues);
        for (std::uint32_t k = 0; k < nValues; ++k)
            m.values[k] = r.u64();
        if (!r.ok())
            return false;
        out.metrics.push_back(std::move(m));
    }
    return r.ok();
}

std::string
Snapshot::encodeToBytes() const
{
    ByteWriter w;
    encode(w);
    return w.data();
}

bool
Snapshot::decodeFromBytes(std::string_view bytes, Snapshot &out)
{
    ByteReader r(bytes);
    return decode(r, out) && r.ok() && r.atEnd();
}

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

Counter
Registry::counter(const std::string &name,
                  const std::string &unit,
                  const std::string &help)
{
    return Counter(
        registerMetric(MetricKind::Counter, name, unit, help));
}

Gauge
Registry::gauge(const std::string &name, const std::string &unit,
                const std::string &help)
{
    return Gauge(
        registerMetric(MetricKind::Gauge, name, unit, help));
}

Histogram
Registry::histogram(const std::string &name,
                    const std::string &unit,
                    const std::string &help)
{
    return Histogram(
        registerMetric(MetricKind::Histogram, name, unit, help));
}

void
Registry::setEnabled(bool on)
{
#ifndef PENELOPE_NO_OBS
    detail::g_enabled.store(on, std::memory_order_relaxed);
#else
    (void)on;
#endif
}

Snapshot
Registry::scrape() const
{
    State &s = state();
    std::array<std::uint64_t, kSlotCapacity> merged{};
    std::vector<MetricDef> defs;
    std::vector<std::uint64_t> gauges;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        defs = s.defs;
        merged = s.retired;
        for (const auto &shard : s.shards)
            for (std::size_t i = 0; i < s.nextSlot; ++i)
                merged[i] += shard->slots[i].load(
                    std::memory_order_relaxed);
        gauges.resize(s.nextGauge);
        for (std::size_t g = 0; g < gauges.size(); ++g)
            gauges[g] = static_cast<std::uint64_t>(
                s.gauges[g].load(std::memory_order_relaxed));
    }
    Snapshot snap;
    snap.metrics.reserve(defs.size());
    for (const auto &def : defs) {
        SnapshotMetric m;
        m.name = def.name;
        m.kind = def.kind;
        m.unit = def.unit;
        if (def.kind == MetricKind::Gauge) {
            m.values.push_back(gauges[def.slot]);
        } else {
            const std::size_t n = slotCount(def.kind);
            m.values.assign(merged.begin() + def.slot,
                            merged.begin() + def.slot + n);
        }
        snap.metrics.push_back(std::move(m));
    }
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const SnapshotMetric &a, const SnapshotMetric &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
Registry::resetValuesForTest()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.retired.fill(0);
    for (const auto &shard : s.shards)
        for (auto &cell : shard->slots)
            cell.store(0, std::memory_order_relaxed);
    for (auto &g : s.gauges)
        g.store(0, std::memory_order_relaxed);
}

std::size_t
Registry::shardCountForTest() const
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.shards.size();
}

} // namespace obs
} // namespace penelope
