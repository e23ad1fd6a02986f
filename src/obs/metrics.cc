#include "obs/metrics.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>

namespace penelope {
namespace obs {
namespace {

struct MetricDef
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::string unit;
    std::uint32_t slot = kInvalidSlot; ///< first slot
};

struct State
{
    mutable std::mutex mutex;
    std::vector<MetricDef> defs;
    std::map<std::string, std::size_t, std::less<>> byName;
    /** First unallocated slot (after the two-slot sink). */
    std::uint32_t nextSlot = 2;
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
    return kind == MetricKind::Histogram ? 2 : 1;
}

std::uint32_t
registerMetric(MetricKind kind, const std::string &name,
               const std::string &unit)
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
    const std::size_t need = slotCount(kind);
    if (s.nextSlot + need > kSlotCapacity)
        std::abort();
    def.slot = s.nextSlot;
    s.nextSlot += static_cast<std::uint32_t>(need);
    s.byName.emplace(name, s.defs.size());
    s.defs.push_back(def);
    return def.slot;
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

const SnapshotMetric *
Snapshot::find(std::string_view name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

Counter
Registry::counter(const std::string &name, const std::string &unit)
{
    return Counter(registerMetric(MetricKind::Counter, name, unit));
}

Histogram
Registry::histogram(const std::string &name, const std::string &unit)
{
    return Histogram(
        registerMetric(MetricKind::Histogram, name, unit));
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
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        defs = s.defs;
        slots.resize(s.nextSlot);
        for (std::size_t i = 0; i < slots.size(); ++i)
            slots[i] = detail::g_slots[i].load(
                std::memory_order_relaxed);
    }
    Snapshot snap;
    snap.metrics.reserve(defs.size());
    for (const auto &def : defs) {
        SnapshotMetric m;
        m.name = def.name;
        m.kind = def.kind;
        m.unit = def.unit;
        m.values.assign(slots.begin() + def.slot,
                        slots.begin() + def.slot + slotCount(def.kind));
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
