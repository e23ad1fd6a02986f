#include "profile.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "common/threadpool.hh"
#include "core/engine.hh"
#include "core/serialize.hh"

namespace penelope {

Hash128
schedulerReplayKey(const SchedulerConfig &sched_config,
                   const SchedReplayConfig &replay_config,
                   std::size_t uops_per_trace,
                   const std::vector<BitDecision> &decisions,
                   std::uint64_t trace_seed, unsigned trace_index)
{
    CacheKeyBuilder key("sched-replay");
    key.u32(sched_config.numEntries)
        .u32(sched_config.isvSampleInterval)
        .f64(replay_config.arrivalRate)
        .f64(replay_config.meanResidence)
        .f64(replay_config.portFreeProb)
        .u64(replay_config.seed)
        .u64(uops_per_trace)
        .u64(trace_seed)
        .u32(trace_index);
    key.u64(decisions.size());
    for (const BitDecision &d : decisions) {
        key.u32(static_cast<std::uint32_t>(d.technique))
            .f64(d.k);
    }
    return key.digest();
}

SchedulerProfile
profileScheduler(const WorkloadSet &workload,
                 const std::vector<unsigned> &trace_indices,
                 std::size_t uops_per_trace,
                 const SchedulerConfig &sched_config,
                 const SchedReplayConfig &replay_config,
                 unsigned jobs, ThreadPool *pool,
                 ResultCache *cache)
{
    const Engine engine(jobs, pool);
    const std::vector<BitDecision> no_decisions;
    const auto shards = engine.mapCached<SchedulerStress>(
        trace_indices, cache,
        [&](unsigned index, std::size_t) {
            return schedulerReplayKey(
                sched_config, replay_config, uops_per_trace,
                no_decisions, workload.spec(index).seed, index);
        },
        [&](unsigned index, std::size_t) {
            Scheduler sched(sched_config);
            sched.enableProtection(false);
            SchedReplayConfig cfg = replay_config;
            cfg.seed = mixSeed(replay_config.seed, index);
            SchedulerReplay replay(sched, cfg);
            TraceGenerator gen = workload.replayGenerator(index);
            const SchedReplayResult r =
                replay.run(gen, uops_per_trace);
            return sched.snapshotStress(r.cycles);
        });

    SchedulerProfile profile;
    if (shards.empty())
        return profile;
    SchedulerStress merged = shards.front();
    for (std::size_t k = 1; k < shards.size(); ++k)
        merged.merge(shards[k]);
    profile.bits = merged.bitProfiles();
    profile.slotOccupancy = merged.occupancy();
    return profile;
}

std::vector<BitDecision>
decideProtection(const std::vector<BitProfile> &bits,
                 double self_balanced_tol)
{
    const FieldLayout &layout = fieldLayout();
    assert(bits.size() == layout.totalBits());
    std::vector<BitDecision> decisions(bits.size());
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        for (unsigned b = 0; b < spec.width; ++b) {
            const unsigned g = spec.offset + b;
            const BitProfile &p = bits[g];
            BitDecision &d = decisions[g];
            if (spec.id == FieldId::Valid) {
                // Contents are always useful; nothing can be done
                // (Section 4.5).
                d.technique = Technique::Unprotectable;
                continue;
            }
            // Self-balanced bits: stale idle contents mirror the
            // in-use distribution, so a ~50% in-use bias needs no
            // repair (register tags, MOB id).
            if (p.occupancy > 0.05 &&
                std::fabs(p.bias0Busy - 0.5) <=
                    self_balanced_tol) {
                d.technique = Technique::None;
                continue;
            }
            d = chooseTechnique(p.occupancy, p.bias0Busy);
        }
    }
    return decisions;
}

std::vector<FieldTechniqueSummary>
summarizeDecisions(const std::vector<BitDecision> &decisions)
{
    const FieldLayout &layout = fieldLayout();
    assert(decisions.size() == layout.totalBits());
    std::vector<FieldTechniqueSummary> out;
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        std::map<Technique, unsigned> votes;
        double min_k = 1.0;
        double max_k = 0.0;
        for (unsigned b = 0; b < spec.width; ++b) {
            const BitDecision &d = decisions[spec.offset + b];
            ++votes[d.technique];
            if (d.technique == Technique::All1K ||
                d.technique == Technique::All0K) {
                min_k = std::min(min_k, d.k);
                max_k = std::max(max_k, d.k);
            }
        }
        Technique dominant = Technique::None;
        unsigned best = 0;
        for (const auto &[technique, count] : votes) {
            if (count > best) {
                best = count;
                dominant = technique;
            }
        }
        if (min_k > max_k) {
            min_k = 0.0;
            max_k = 0.0;
        }
        out.push_back(
            {spec.id, spec.name, dominant, min_k, max_k});
    }
    return out;
}

} // namespace penelope
