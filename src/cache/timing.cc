#include "timing.hh"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "core/engine.hh"
#include "core/serialize.hh"

namespace penelope {

namespace {

/** Content hash of one trace's baseline-vs-mechanism pair. */
Hash128
memLossKey(const TraceSpec &spec, unsigned index,
           std::size_t uops_per_trace, const MemLossQuery &query,
           const MemTimingParams &params, double time_scale)
{
    CacheKeyBuilder key("mem-loss");
    key.u32(index).u64(spec.seed).u64(uops_per_trace);
    keyCacheConfig(key, query.dl0);
    keyCacheConfig(key, query.dtlb);
    key.u32(static_cast<std::uint32_t>(query.dl0Mechanism))
        .u32(static_cast<std::uint32_t>(query.dtlbMechanism))
        .f64(params.baseCpi)
        .u32(params.dl0MissPenalty)
        .u32(params.dtlbMissPenalty)
        .f64(time_scale);
    return key.digest();
}

/** Digest of one structure's keyed geometry: structures with equal
 *  digests run identical mechanism-free simulations. */
Hash128
geometryKey(const CacheConfig &config)
{
    CacheKeyBuilder key("mem-geometry");
    keyCacheConfig(key, config);
    return key.digest();
}

/** Per element: the index of the first element equal to it. */
template <class T>
std::vector<std::size_t>
firstEqual(const std::vector<T> &values)
{
    std::vector<std::size_t> first;
    for (const T &value : values)
        first.push_back(static_cast<std::size_t>(
            std::find(values.begin(), values.end(), value) -
            values.begin()));
    return first;
}

/** One trace's pass over its missing queries: its sims in creation
 *  order -- the miss streams and baselines and every missing query's
 *  mechanism sim -- each reading only sims made before it. */
struct MemLossPass
{
    std::vector<std::unique_ptr<MemTimingSim>> owned;
    std::vector<MemTimingSim *> sims;

    /** Per missing query: its baseline and its mechanism sim. */
    std::vector<std::pair<const MemTimingSim *, const MemTimingSim *>>
        queries;

    MemTimingSim *
    add(std::unique_ptr<MemTimingSim> sim)
    {
        sims.push_back(sim.get());
        owned.push_back(std::move(sim));
        return sims.back();
    }

    void
    feed(const Uop *uops, std::size_t n)
    {
        MemTimingSim::feedLockstep(sims, uops, n);
    }

    std::vector<MemLossSample>
    results() const
    {
        std::vector<MemLossSample> out;
        for (const auto &[baseline, mech] : queries) {
            const double base_cycles = baseline->result().cycles;
            const MemSimResult rm = mech->result();
            out.push_back({rm.cycles / base_cycles - 1.0,
                           rm.cycles / base_cycles,
                           rm.dl0AvgInvertRatio, rm.dtlbAvgInvertRatio});
        }
        return out;
    }
};

} // namespace

MechanismParams
mechanismParams(MechanismKind kind, const CacheConfig &config,
                bool is_tlb, double time_scale)
{
    MechanismParams p;
    p.kind = kind;
    const Cycle period = static_cast<Cycle>(10'000'000 * time_scale);
    switch (kind) {
      case MechanismKind::None:
        break;
      case MechanismKind::SetFixed50:
      case MechanismKind::WayFixed50:
        p.invertRatio = 0.5;
        p.periodCycles = period;
        break;
      case MechanismKind::LineFixed50:
        p.invertRatio = 0.5;
        break;
      case MechanismKind::LineDynamic60:
        p.invertRatio = 0.6;
        p.periodCycles = period;
        p.warmupCycles = static_cast<Cycle>(200'000 * time_scale);
        p.testCycles = static_cast<Cycle>(200'000 * time_scale);
        p.extraMissThreshold = is_tlb
            ? dtlbExtraMissThreshold(
                  config.sizeBytes / config.lineBytes)
            : dl0ExtraMissThreshold(config.sizeBytes);
        break;
    }
    return p;
}

MemTimingSim::MemTimingSim(const CacheConfig &dl0_config,
                           const CacheConfig &dtlb_config,
                           const MemTimingParams &params,
                           MechanismKind dl0_mechanism,
                           MechanismKind dtlb_mechanism,
                           double time_scale)
    : params_(params),
      dl0_(dl0_config,
           mechanismParams(dl0_mechanism, dl0_config, false, time_scale)),
      dtlb_(dtlb_config,
            mechanismParams(dtlb_mechanism, dtlb_config, true,
                            time_scale))
{}

void
MemTimingSim::readMisses(MemTimingSim *dl0_source,
                         MemTimingSim *dtlb_source)
{
    if (dl0_source)
        dl0_source->record_ = true;
    if (dtlb_source)
        dtlb_source->record_ = true;
    dl0Source_ = dl0_source;
    dtlbSource_ = dtlb_source;
}

void
MemTimingSim::beginChunk(std::size_t n)
{
    if (record_) {
        dl0Missed_.resize(n);
        dtlbMissed_.resize(n);
    }
    assert(!dl0Source_ || dl0Source_->dl0Missed_.size() == n);
    assert(!dtlbSource_ || dtlbSource_->dtlbMissed_.size() == n);
    uops_ += n;
}

inline void
MemTimingSim::step(const Uop &uop, std::size_t i, double &cycles)
{
    // A structure with a source reads its misses from it instead of
    // simulating; a sim that is read records both structures' misses.
    const Cycle now = static_cast<Cycle>(cycles);
    dl0_.tick(now);
    dtlb_.tick(now);
    cycles += params_.baseCpi;
    if (isMemory(uop.cls)) {
        ++memOps_;
        const bool dtlb_miss = dtlbSource_
            ? dtlbSource_->dtlbMissed_[i] != 0
            : !dtlb_.access(uop.addr, now).hit;
        const bool dl0_miss = dl0Source_
            ? dl0Source_->dl0Missed_[i] != 0
            : !dl0_.access(uop.addr, now).hit;
        if (record_) {
            dtlbMissed_[i] = dtlb_miss;
            dl0Missed_[i] = dl0_miss;
        }
        if (dtlb_miss)
            cycles += params_.dtlbMissPenalty;
        if (dl0_miss)
            cycles += params_.dl0MissPenalty;
    }
}

void
MemTimingSim::feed(const Uop *uops, std::size_t n)
{
    // Alone, the cycle count stays in a register: BM_MemTimingSim
    // measures 14-19% slower through feedLockstep over this one sim.
    beginChunk(n);
    double cycles = cycles_;
    for (std::size_t i = 0; i < n; ++i)
        step(uops[i], i, cycles);
    cycles_ = cycles;
}

void
MemTimingSim::feedLockstep(std::span<MemTimingSim *const> sims,
                           const Uop *uops, std::size_t n)
{
    for (MemTimingSim *sim : sims)
        sim->beginChunk(n);
    for (std::size_t i = 0; i < n; ++i)
        for (MemTimingSim *sim : sims)
            sim->step(uops[i], i, sim->cycles_);
}

MemSimResult
MemTimingSim::result() const
{
    MemSimResult r;
    r.uops = uops_;
    r.memOps = memOps_;
    r.cycles = cycles_;
    r.dl0Hits = dl0_.hits();
    r.dl0Misses = dl0_.misses();
    r.dtlbHits = dtlb_.hits();
    r.dtlbMisses = dtlb_.misses();
    const Cycle end = static_cast<Cycle>(cycles_);
    r.dl0AvgInvertRatio = dl0_.averageInvertRatio(end);
    r.dtlbAvgInvertRatio = dtlb_.averageInvertRatio(end);
    return r;
}

std::vector<std::vector<MemLossSample>>
simulateMemLosses(const WorkloadSet &workload,
                  const std::vector<unsigned> &trace_indices,
                  std::size_t uops_per_trace,
                  const std::vector<MemLossQuery> &queries,
                  const MemTimingParams &params, double time_scale,
                  unsigned jobs, ThreadPool *pool, ResultCache *cache)
{
    // Per query: the first query with its DL0 geometry, with its
    // DTLB geometry and with both.  A trace task indexes its streams
    // and baselines by these.
    std::vector<Hash128> dl0_geometry;
    std::vector<Hash128> dtlb_geometry;
    std::vector<std::pair<Hash128, Hash128>> pair_geometry;
    for (const MemLossQuery &query : queries) {
        dl0_geometry.push_back(geometryKey(query.dl0));
        dtlb_geometry.push_back(geometryKey(query.dtlb));
        pair_geometry.emplace_back(dl0_geometry.back(),
                                   dtlb_geometry.back());
    }
    const std::vector<std::size_t> dl0_of = firstEqual(dl0_geometry);
    const std::vector<std::size_t> dtlb_of = firstEqual(dtlb_geometry);
    const std::vector<std::size_t> pair_of = firstEqual(pair_geometry);

    const Engine engine(jobs, pool);
    return engine.streamCached<MemLossSample>(
        trace_indices, queries.size(), uops_per_trace, cache,
        [&](unsigned index, std::size_t q) {
            return memLossKey(workload.spec(index), index,
                              uops_per_trace, queries[q], params,
                              time_scale);
        },
        [&](unsigned index) { return workload.generator(index); },
        [&](unsigned, const std::vector<std::size_t> &missing) {
            // Streams are built for the geometries of the missing
            // queries only, in query order.
            const std::size_t n = queries.size();
            std::vector<MemTimingSim *> dl0(n);
            std::vector<MemTimingSim *> dtlb(n);
            std::vector<const MemTimingSim *> baseline(n);
            MemLossPass pass;
            for (const std::size_t q : missing) {
                const MemLossQuery &query = queries[q];
                MemTimingSim *&d = dl0[dl0_of[q]];
                MemTimingSim *&t = dtlb[dtlb_of[q]];
                const MemTimingSim *&b = baseline[pair_of[q]];
                if (!b) {
                    // The pair's baseline: it simulates whichever of
                    // its structures has no stream yet, stamped on
                    // its own timeline, and reads the other's.
                    MemTimingSim *sim =
                        pass.add(std::make_unique<MemTimingSim>(
                            query.dl0, query.dtlb, params,
                            MechanismKind::None, MechanismKind::None,
                            time_scale));
                    sim->readMisses(d, t);
                    b = sim;
                    if (!d)
                        d = sim;
                    if (!t)
                        t = sim;
                }
                MemTimingSim *mech =
                    pass.add(std::make_unique<MemTimingSim>(
                        query.dl0, query.dtlb, params,
                        query.dl0Mechanism, query.dtlbMechanism,
                        time_scale));
                mech->readMisses(
                    query.dl0Mechanism == MechanismKind::None ? d
                                                              : nullptr,
                    query.dtlbMechanism == MechanismKind::None
                        ? t
                        : nullptr);
                pass.queries.emplace_back(b, mech);
            }
            return pass;
        });
}

PerfLossStats
foldPerfLoss(const std::vector<MemLossSample> &samples,
             bool apply_to_dl0)
{
    PerfLossStats stats;
    RunningStats loss;
    RunningStats ratio;
    unsigned above5 = 0;
    unsigned above10 = 0;
    for (const MemLossSample &r : samples) {
        loss.add(r.loss);
        ratio.add(apply_to_dl0 ? r.dl0InvertRatio
                               : r.dtlbInvertRatio);
        if (r.loss > 0.05)
            ++above5;
        if (r.loss > 0.10)
            ++above10;
    }
    stats.meanLoss = loss.mean();
    stats.maxLoss = loss.count() ? loss.max() : 0.0;
    stats.meanInvertRatio = ratio.mean();
    stats.traces = static_cast<unsigned>(samples.size());
    if (stats.traces > 0) {
        stats.fracAbove5Pct =
            static_cast<double>(above5) / stats.traces;
        stats.fracAbove10Pct =
            static_cast<double>(above10) / stats.traces;
    }
    return stats;
}

double
foldNormalizedCpi(const std::vector<MemLossSample> &samples)
{
    RunningStats norm;
    for (const MemLossSample &r : samples)
        norm.add(r.normalizedCycles);
    return norm.mean();
}

} // namespace penelope
