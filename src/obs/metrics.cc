#include "obs/metrics.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>

#include "core/resultcache.hh"

namespace penelope {
namespace obs {
namespace {

struct MetricDef
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::string unit;
    std::string help;
    std::uint32_t slot = kInvalidSlot; ///< slot base / gauge index
};

struct State
{
    mutable std::mutex mutex;
    std::vector<MetricDef> defs;
    std::map<std::string, std::size_t, std::less<>> byName;
    /** First unallocated slot (after the sink region). */
    std::uint32_t nextSlot = kHistSlots;
    std::vector<std::atomic<std::int64_t>> gauges;
    /** First unallocated gauge (gauge 0 is the sink). */
    std::uint32_t nextGauge = 1;

    State() : gauges(256) {}
};

State &
state()
{
    static State s;
    return s;
}

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
    std::vector<MetricDef> defs;
    std::vector<std::uint64_t> slots;
    std::vector<std::uint64_t> gauges;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        defs = s.defs;
        slots.resize(s.nextSlot);
        for (std::size_t i = 0; i < slots.size(); ++i)
            slots[i] = detail::g_slots[i].load(
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
            m.values.assign(slots.begin() + def.slot,
                            slots.begin() + def.slot + n);
        }
        snap.metrics.push_back(std::move(m));
    }
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const SnapshotMetric &a, const SnapshotMetric &b) {
                  return a.name < b.name;
              });
    return snap;
}

} // namespace obs
} // namespace penelope
