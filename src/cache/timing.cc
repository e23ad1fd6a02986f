#include "timing.hh"

#include <memory>

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

/** Digest of a query's keyed (DL0, DTLB) geometry: queries with
 *  equal digests drive identical baseline runs. */
Hash128
geometryKey(const MemLossQuery &query)
{
    CacheKeyBuilder key("mem-geometry");
    keyCacheConfig(key, query.dl0);
    keyCacheConfig(key, query.dtlb);
    return key.digest();
}

/** One query's consumer of the shared trace pass: its mechanism sim
 *  and the baseline it shares with every query on the same geometry
 *  (the first of them feeds it). */
struct MemLossRun
{
    std::shared_ptr<MemTimingSim> baseline;
    bool feedsBaseline;
    std::unique_ptr<MemTimingSim> mech;

    void
    feed(const Uop *uops, std::size_t n)
    {
        if (feedsBaseline)
            baseline->feed(uops, n);
        mech->feed(uops, n);
    }

    MemLossSample
    result() const
    {
        const double base_cycles = baseline->result().cycles;
        const MemSimResult rm = mech->result();
        return {rm.cycles / base_cycles - 1.0, rm.cycles / base_cycles,
                rm.dl0AvgInvertRatio, rm.dtlbAvgInvertRatio};
    }
};

} // namespace

const char *
mechanismName(MechanismKind kind)
{
    switch (kind) {
      case MechanismKind::None:
        return "Baseline";
      case MechanismKind::SetFixed50:
        return "SetFixed50%";
      case MechanismKind::WayFixed50:
        return "WayFixed50%";
      case MechanismKind::LineFixed50:
        return "LineFixed50%";
      case MechanismKind::LineDynamic60:
        return "LineDynamic60%";
    }
    return "?";
}

std::unique_ptr<InversionPolicy>
makeMechanism(MechanismKind kind, const CacheConfig &config,
              bool is_tlb, double time_scale)
{
    switch (kind) {
      case MechanismKind::None:
        return nullptr;
      case MechanismKind::SetFixed50:
        return std::make_unique<SetFixedInversion>(
            0.5, static_cast<Cycle>(10'000'000 * time_scale));
      case MechanismKind::WayFixed50:
        return std::make_unique<WayFixedInversion>(
            0.5, static_cast<Cycle>(10'000'000 * time_scale));
      case MechanismKind::LineFixed50:
        return std::make_unique<LineFixedInversion>(0.5);
      case MechanismKind::LineDynamic60: {
        DynamicInversionParams p;
        p.invertRatio = 0.6;
        p.warmupCycles =
            static_cast<Cycle>(200'000 * time_scale);
        p.testCycles = static_cast<Cycle>(200'000 * time_scale);
        p.periodCycles =
            static_cast<Cycle>(10'000'000 * time_scale);
        p.extraMissThreshold = is_tlb
            ? dtlbExtraMissThreshold(
                  config.sizeBytes / config.lineBytes)
            : dl0ExtraMissThreshold(config.sizeBytes);
        return std::make_unique<LineDynamicInversion>(p);
      }
    }
    return nullptr;
}

MemTimingSim::MemTimingSim(const CacheConfig &dl0_config,
                           const CacheConfig &dtlb_config,
                           const MemTimingParams &params,
                           MechanismKind dl0_mechanism,
                           MechanismKind dtlb_mechanism,
                           double time_scale)
    : params_(params), dl0_(dl0_config), dtlb_(dtlb_config)
{
    dl0_.setPolicy(
        makeMechanism(dl0_mechanism, dl0_config, false, time_scale));
    dtlb_.setPolicy(
        makeMechanism(dtlb_mechanism, dtlb_config, true,
                      time_scale));
}

void
MemTimingSim::feed(const Uop *uops, std::size_t n)
{
    double cycles = cycles_;
    for (std::size_t i = 0; i < n; ++i) {
        const Uop &uop = uops[i];
        const Cycle now = static_cast<Cycle>(cycles);
        dl0_.tick(now);
        dtlb_.tick(now);
        cycles += params_.baseCpi;
        if (isMemory(uop.cls)) {
            ++memOps_;
            if (!dtlb_.access(uop.addr, now).hit)
                cycles += params_.dtlbMissPenalty;
            if (!dl0_.access(uop.addr, now).hit)
                cycles += params_.dl0MissPenalty;
        }
    }
    cycles_ = cycles;
    uops_ += n;
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
    // Per query: the first query on its geometry; they share one
    // baseline run.
    std::vector<std::size_t> base(queries.size(), 0);
    for (std::size_t q = 0; q < queries.size(); ++q)
        while (geometryKey(queries[base[q]]) != geometryKey(queries[q]))
            ++base[q];

    const Engine engine(jobs, pool);
    return engine.streamCached<MemLossSample>(
        trace_indices, queries.size(), uops_per_trace, cache,
        [&](unsigned index, std::size_t q) {
            return memLossKey(workload.spec(index), index,
                              uops_per_trace, queries[q], params,
                              time_scale);
        },
        [&](unsigned index) { return workload.generator(index); },
        [&](unsigned) {
            // Baselines are built for the geometries of the missing
            // queries only, one per geometry.
            return [&, baselines = std::vector<std::shared_ptr<
                           MemTimingSim>>(queries.size())](
                       std::size_t q) mutable {
                const MemLossQuery &query = queries[q];
                std::shared_ptr<MemTimingSim> &baseline =
                    baselines[base[q]];
                const bool feeds = !baseline;
                if (feeds)
                    baseline = std::make_shared<MemTimingSim>(
                        query.dl0, query.dtlb, params,
                        MechanismKind::None, MechanismKind::None,
                        time_scale);
                return std::make_unique<MemLossRun>(MemLossRun{
                    baseline, feeds,
                    std::make_unique<MemTimingSim>(
                        query.dl0, query.dtlb, params,
                        query.dl0Mechanism, query.dtlbMechanism,
                        time_scale)});
            };
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
