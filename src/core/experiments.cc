#include "experiments.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>

#include "adder/adder.hh"
#include "core/engine.hh"
#include "core/serialize.hh"
#include "scheduler/profile.hh"

namespace penelope {

namespace {

/** The shardIndex-th round-robin slice of an evaluation set (the
 *  `--shard i/N` unit of scale-out). */
std::vector<unsigned>
shardSlice(std::vector<unsigned> traces,
           const ExperimentOptions &options)
{
    if (options.shardCount <= 1)
        return traces;
    std::vector<unsigned> slice;
    slice.reserve(traces.size() / options.shardCount + 1);
    for (std::size_t k = options.shardIndex; k < traces.size();
         k += options.shardCount)
        slice.push_back(traces[k]);
    return slice;
}

/** One trace's pass over its missing Figure-6 arms: a RegFilePass
 *  for each register file (INT, FP) with a missing arm, as one
 *  replay drives files of one geometry. */
struct RegFileTracePass
{
    std::array<std::optional<RegFilePass>, 2> files; ///< INT, FP
    std::vector<bool> fp; ///< per missing arm, in slot order

    void
    feed(const Uop *uops, std::size_t n)
    {
        for (std::optional<RegFilePass> &file : files)
            if (file)
                file->feed(uops, n);
    }

    /** Each missing arm's shard, in slot order. */
    std::vector<RegFileShard>
    results()
    {
        std::array<std::vector<RegFileShard>, 2> shards;
        for (const bool f : {false, true})
            if (files[f])
                shards[f] = files[f]->results();
        std::array<std::size_t, 2> next{};
        std::vector<RegFileShard> out;
        for (const bool f : fp)
            out.push_back(std::move(shards[f][next[f]++]));
        return out;
    }
};

/** Content hash of one trace's register-file replay. */
Hash128
regfileReplayKey(const RegFileConfig &rf_config,
                 const RegReplayConfig &replay_config, bool isv,
                 std::size_t uops_per_trace,
                 std::uint64_t trace_seed, unsigned trace_index)
{
    CacheKeyBuilder key("regfile-replay");
    keyRegFileSetup(key, rf_config, replay_config, isv, uops_per_trace);
    key.u64(trace_seed).u32(trace_index);
    return key.digest();
}

/** Mix a pipeline configuration into a key: every field that can
 *  steer the simulation.  The pipeline once held a full scheduler
 *  and two register files; every stored pipeline key carries their
 *  settings (scheduler ISV sampling interval 64, register widths
 *  32/80, RINV sampling interval 64, both ISV flags off), so those
 *  are written as the literals they always held and the keys stay
 *  byte-identical. */
void
keyPipelineConfig(CacheKeyBuilder &key, const PipelineConfig &cfg)
{
    key.u32(cfg.allocWidth)
        .u32(cfg.commitWidth)
        .u32(cfg.robEntries)
        .u32(cfg.rfWritePorts)
        .u32(static_cast<std::uint32_t>(cfg.adderPolicy))
        .f64(cfg.mispredictProb)
        .u32(cfg.redirectPenalty)
        .u32(cfg.loadHitLatency)
        .u32(cfg.dl0MissPenalty)
        .u32(cfg.dtlbMissPenalty)
        .u32(cfg.schedEntries).u32(64)
        .u32(cfg.intRegs).u32(32).u32(64)
        .u32(cfg.fpRegs).u32(80).u32(64);
    keyCacheConfig(key, cfg.dl0);
    keyCacheConfig(key, cfg.dtlb);
    key.u32(static_cast<std::uint32_t>(cfg.dl0Mechanism))
        .u32(static_cast<std::uint32_t>(cfg.dtlbMechanism))
        .f64(cfg.mechanismTimeScale)
        .b(false)
        .b(false);
}

/** One run of @p cfg, @p uops long, on each suite's first trace (in
 *  suite order), memoised per trace. */
std::vector<PipelineStats>
runPipelinePerSuite(const WorkloadSet &workload,
                    const ExperimentOptions &options,
                    const PipelineConfig &cfg, std::size_t uops)
{
    return Engine(options.jobs, options.pool)
        .mapCached<PipelineStats>(
            workload.firstPerSuite(), options.cache,
            [&](unsigned index, std::size_t) {
                CacheKeyBuilder key("pipeline-run");
                keyPipelineConfig(key, cfg);
                key.u64(uops).u64(workload.spec(index).seed).u32(index);
                return key.digest();
            },
            [&](unsigned index, std::size_t) {
                Pipeline pipe(cfg);
                TraceGenerator gen = workload.generator(index);
                return pipe.run(gen, uops);
            });
}

/** The paper's 100-trace profiling sample (never sharded). */
std::vector<unsigned>
profilingSample(const WorkloadSet &workload,
                const ExperimentOptions &options)
{
    return workload.sampleIndices(
        std::min(options.profilingTraces, workload.size() / 2),
        0xbead);
}

} // namespace

std::vector<unsigned>
schedulerProfilingSubset(const WorkloadSet &workload,
                         const ExperimentOptions &options)
{
    const auto profiling_set = profilingSample(workload, options);
    std::vector<unsigned> subset;
    for (std::size_t i = 0; i < profiling_set.size();
         i += std::max<std::size_t>(1,
                                    profiling_set.size() / 20)) {
        subset.push_back(profiling_set[i]);
    }
    return subset;
}

std::vector<unsigned>
evaluationTraces(const WorkloadSet &workload,
                 const ExperimentOptions &options)
{
    return shardSlice(
        workload.strided(std::max(1u, options.traceStride)),
        options);
}

namespace {

/** Short local alias used by the runners below. */
std::vector<unsigned>
evalTraces(const WorkloadSet &workload,
           const ExperimentOptions &options)
{
    return evaluationTraces(workload, options);
}

} // namespace

// -------------------------------------------------------------- adder

std::vector<OperandSample>
collectWorkloadAdderOperands(const WorkloadSet &workload,
                             const ExperimentOptions &options)
{
    const Engine engine(options.jobs, options.pool);
    const auto firsts = workload.firstPerSuite();
    const std::size_t per_suite =
        options.adderOperandSamples / std::max<std::size_t>(
            1, firsts.size());
    const auto chunks =
        engine.mapCached<std::vector<OperandSample>>(
            firsts, options.cache,
            [&](unsigned index, std::size_t) {
                CacheKeyBuilder key("adder-operands");
                key.u64(per_suite)
                    .u64(workload.spec(index).seed)
                    .u32(index);
                return key.digest();
            },
            [&](unsigned index, std::size_t) {
                TraceGenerator gen = workload.generator(index);
                return collectAdderOperands(gen, per_suite);
            });
    std::vector<OperandSample> operands;
    for (const auto &chunk : chunks)
        operands.insert(operands.end(), chunk.begin(),
                        chunk.end());
    return operands;
}

AdderExperimentResult
runAdderExperiment(const WorkloadSet &workload,
                   const ExperimentOptions &options)
{
    AdderExperimentResult result;

    LadnerFischerAdder adder(32);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    AdderAgingAnalysis analysis(adder, model);

    // Figure 4: sweep the 28 synthetic input pairs.
    result.pairSweep = analysis.sweepPairs();
    result.bestPair = bestPair(result.pairSweep);

    // Real-input aging: operands sampled across suites (cached,
    // one trace per suite -- see collectWorkloadAdderOperands).
    const auto operands =
        collectWorkloadAdderOperands(workload, options);
    const auto real_probs = analysis.zeroProbsForOperands(operands);
    result.baselineGuardband =
        analysis.baselineGuardband(real_probs);

    // Figure 5 scenarios (paper utilisations).
    for (double util : {0.30, 0.21, 0.11}) {
        result.scenarios.push_back(
            {util, analysis.scenarioGuardband(
                       real_probs, util, result.bestPair)});
    }

    // Metric at worst-case utilisation (Section 4.3: 1.24).
    result.efficiency = nbtiEfficiency(
        1.0, result.scenarios.front().guardband, 1.0);
    return result;
}

AdderUtilization
runAdderUtilization(const WorkloadSet &workload,
                    const ExperimentOptions &options)
{
    AdderUtilization result;

    // Both policies, averaged over one representative trace per
    // suite; per-trace stats fold in suite order.
    for (const auto policy : {AdderAllocationPolicy::Priority,
                              AdderAllocationPolicy::Uniform}) {
        PipelineConfig cfg;
        cfg.adderPolicy = policy;
        const auto shards = runPipelinePerSuite(
            workload, options, cfg, options.uopsPerTrace / 4);
        RunningStats util;
        RunningStats util_min;
        RunningStats util_max;
        for (const PipelineStats &s : shards) {
            double lo = 1.0;
            double hi = 0.0;
            for (unsigned a = 0; a < 4; ++a) {
                util.add(s.adderUtilization[a]);
                lo = std::min(lo, s.adderUtilization[a]);
                hi = std::max(hi, s.adderUtilization[a]);
            }
            util_min.add(lo);
            util_max.add(hi);
        }
        if (policy == AdderAllocationPolicy::Priority) {
            result.priorityMin = util_min.mean();
            result.priorityMax = util_max.mean();
        } else {
            result.uniform = util.mean();
        }
    }
    return result;
}

// ------------------------------------------------------ register file

std::vector<RegFileArmResult>
runRegFileExperiment(const WorkloadSet &workload,
                     const std::vector<RegFileArm> &arms,
                     const ExperimentOptions &options)
{
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    const Engine engine(options.jobs, options.pool);

    struct Setup
    {
        RegFileConfig rf;
        RegReplayConfig replay;
    };
    Setup setups[2]; // INT, FP
    for (const bool fp : {false, true}) {
        Setup &setup = setups[fp];
        setup.rf.name = fp ? "FP-RF" : "INT-RF";
        setup.rf.numEntries = fp ? 64 : 128;
        setup.rf.width = fp ? 80 : 32;
        setup.replay.fp = fp;
        setup.replay.portFreeProb = fp ? 0.86 : 0.92;
        // Rename-to-commit depth calibrated so the free fractions
        // land near the paper's 54% (INT) / 69% (FP).
        setup.replay.commitDelay = fp ? 110 : 64;
    }

    // Slot a is arm a.  Every trace ages its own register files:
    // the missing arms of one file share one replay timeline (ISV
    // moves none of it), and one pass per trace feeds every file.
    const auto shards = engine.streamCached<RegFileShard>(
        evalTraces(workload, options), arms.size(),
        options.uopsPerTrace, options.cache,
        [&](unsigned index, std::size_t slot) {
            const Setup &setup = setups[arms[slot].fp];
            return regfileReplayKey(setup.rf, setup.replay,
                                    arms[slot].isv,
                                    options.uopsPerTrace,
                                    workload.spec(index).seed, index);
        },
        [&](unsigned index) { return workload.replayGenerator(index); },
        [&](unsigned index, const std::vector<std::size_t> &slots) {
            RegFileTracePass pass;
            std::array<std::vector<bool>, 2> isv;
            for (const std::size_t slot : slots) {
                pass.fp.push_back(arms[slot].fp);
                isv[arms[slot].fp].push_back(arms[slot].isv);
            }
            for (const bool fp : {false, true}) {
                if (isv[fp].empty())
                    continue;
                RegReplayConfig cfg = setups[fp].replay;
                cfg.seed = mixSeed(cfg.seed, index);
                pass.files[fp].emplace(cfg, setups[fp].rf, isv[fp]);
            }
            return pass;
        });

    // The per-bit duty times merge in trace order into the aggregate
    // bias.
    std::vector<RegFileArmResult> results(arms.size());
    for (std::size_t a = 0; a < arms.size(); ++a) {
        const RegFileConfig &rf = setups[arms[a].fp].rf;
        BitBiasTracker bias(rf.width);
        RunningStats free_frac;
        IsvStats isv_stats;
        for (const RegFileShard &shard : shards[a]) {
            bias.merge(shard.bias);
            free_frac.add(shard.freeFraction);
            isv_stats.merge(shard.isv);
        }

        RegFileArmResult &result = results[a];
        result.name = rf.name;
        result.arm = arms[a];
        result.bias = bias.biasVector();
        result.worst = bias.maxWorstCaseStress();
        result.guardband = model.guardbandForZeroProb(result.worst);
        result.freeFraction = free_frac.mean();
        result.isvStats = isv_stats;
    }
    return results;
}

// ---------------------------------------------------------- scheduler

namespace {

/** One scheduler arm, merged in trace order. */
SchedulerArmResult
foldSchedulerArm(const std::vector<SchedulerStress> &slot)
{
    SchedulerArmResult arm;
    if (slot.empty())
        return arm;
    SchedulerStress merged = slot.front();
    for (std::size_t k = 1; k < slot.size(); ++k)
        merged.merge(slot[k]);
    arm.bias = merged.biasVector();
    arm.worstFig8 = merged.worstFigure8Bias();
    arm.occupancy = merged.occupancy();
    return arm;
}

} // namespace

SchedulerExperimentResult
runSchedulerExperiment(const WorkloadSet &workload, SchedulerArms arms,
                       const ExperimentOptions &options)
{
    const Engine engine(options.jobs, options.pool);

    // Paper methodology: profile K on 100 random traces...
    const auto profiling_set = profilingSample(workload, options);
    // ...then evaluate on the remaining traces (subsetted, and
    // sharded when this process runs one slice of a scale-out).
    std::vector<unsigned> eval_set;
    {
        const auto complement = workload.complement(profiling_set);
        for (std::size_t i = 0; i < complement.size();
             i += std::max(1u, options.traceStride)) {
            eval_set.push_back(complement[i]);
        }
        eval_set = shardSlice(std::move(eval_set), options);
    }

    // Slot s replays with protection protect[s].
    std::vector<bool> protect;
    if (arms != SchedulerArms::Protected)
        protect.push_back(false);
    if (arms != SchedulerArms::Baseline)
        protect.push_back(true);

    // Profiling uses a shorter run per trace: K only needs the
    // aggregate occupancy/bias statistics.  Only the protected arm
    // reads the decisions.
    std::vector<BitDecision> decisions;
    if (protect.back()) {
        const SchedulerProfile profile = profileScheduler(
            workload, schedulerProfilingSubset(workload, options),
            options.uopsPerTrace / 2, SchedulerConfig(),
            SchedReplayConfig(), options.jobs, options.pool,
            options.cache);
        decisions = decideProtection(profile.bits);
    }

    // The missing arms of a trace share one replay timeline
    // (protection moves none of it), fed by one pass per trace.
    const SchedReplayConfig replay_config;
    const std::vector<BitDecision> no_decisions;
    const auto shards = engine.streamCached<SchedulerStress>(
        eval_set, protect.size(), options.uopsPerTrace, options.cache,
        [&](unsigned index, std::size_t slot) {
            // The installed decisions are key material: a protected
            // replay's statistics depend on them.
            return schedulerReplayKey(
                SchedulerConfig(), replay_config, options.uopsPerTrace,
                protect[slot] ? decisions : no_decisions,
                workload.spec(index).seed, index);
        },
        [&](unsigned index) { return workload.replayGenerator(index); },
        [&](unsigned index, const std::vector<std::size_t> &slots) {
            SchedReplayConfig cfg = replay_config;
            cfg.seed = mixSeed(replay_config.seed, index);
            std::vector<bool> arms;
            for (const std::size_t slot : slots)
                arms.push_back(protect[slot]);
            return SchedulerPass(cfg, decisions, arms);
        });

    SchedulerExperimentResult result;
    for (std::size_t slot = 0; slot < protect.size(); ++slot) {
        const SchedulerArmResult arm = foldSchedulerArm(shards[slot]);
        if (!protect[slot]) {
            result.baseline = arm;
            continue;
        }
        SchedulerProtectedResult &prot = result.protectedArm.emplace();
        static_cast<SchedulerArmResult &>(prot) = arm;
        prot.techniques = summarizeDecisions(decisions);
        prot.guardband = GuardbandModel::paperCalibrated()
                             .guardbandForZeroProb(prot.worstFig8);
        // TDP overhead: RINV + counters + timestamps < 2% (Section
        // 4.5).
        prot.efficiency = nbtiEfficiency(1.0, prot.guardband, 1.02);
    }
    return result;
}

// -------------------------------------------------------------- cache

Table3Result
runTable3Experiment(const WorkloadSet &workload,
                    const ExperimentOptions &options)
{
    Table3Result result;
    std::vector<Table3Row> &rows = result.rows;
    const auto traces = evalTraces(workload, options);

    auto add_dl0_row = [&](unsigned ways, unsigned kb) {
        Table3Row row;
        row.label = "DL0 " + std::to_string(ways) + "-way " +
            std::to_string(kb) + "KB";
        row.config.name = "DL0";
        row.config.sizeBytes = kb * 1024;
        row.config.ways = ways;
        rows.push_back(row);
    };
    auto add_tlb_row = [&](unsigned entries) {
        Table3Row row;
        row.label = "DTLB 8-way " + std::to_string(entries) +
            " ent.";
        row.isTlb = true;
        row.config = CacheConfig::tlb(entries, 8);
        rows.push_back(row);
    };

    add_dl0_row(8, 32);
    add_dl0_row(8, 16);
    add_dl0_row(8, 8);
    add_dl0_row(4, 32);
    add_dl0_row(4, 16);
    add_dl0_row(4, 8);
    add_tlb_row(128);
    add_tlb_row(64);
    add_tlb_row(32);

    const MechanismKind mechanisms[3] = {
        MechanismKind::SetFixed50, MechanismKind::LineFixed50,
        MechanismKind::LineDynamic60};

    const CacheConfig default_dl0 = CacheConfig();
    const CacheConfig default_dtlb = CacheConfig::tlb(128, 8);

    // Queries 0..26 are the grid (row-major, mechanism minor), then
    // the WayFixed ablation and the combined CPI.
    std::vector<MemLossQuery> queries;
    for (const Table3Row &row : rows) {
        for (const MechanismKind mechanism : mechanisms) {
            if (row.isTlb)
                queries.push_back({default_dl0, row.config,
                                   MechanismKind::None, mechanism});
            else
                queries.push_back({row.config, default_dtlb,
                                   mechanism, MechanismKind::None});
        }
    }
    const std::size_t way_fixed = queries.size();
    queries.push_back({default_dl0, default_dtlb,
                       MechanismKind::WayFixed50,
                       MechanismKind::None});
    const std::size_t combined = queries.size();
    queries.push_back({default_dl0, default_dtlb,
                       MechanismKind::LineFixed50,
                       MechanismKind::LineFixed50});

    const auto samples = simulateMemLosses(
        workload, traces, options.cacheUops, queries,
        MemTimingParams(), options.mechanismTimeScale, options.jobs,
        options.pool, options.cache);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (unsigned m = 0; m < 3; ++m) {
            const PerfLossStats stats =
                foldPerfLoss(samples[r * 3 + m], !rows[r].isTlb);
            rows[r].loss[m] = stats.meanLoss;
            rows[r].invertRatio[m] = stats.meanInvertRatio;
        }
    }
    result.wayFixedLoss =
        foldPerfLoss(samples[way_fixed], true).meanLoss;
    result.combinedCpi = foldNormalizedCpi(samples[combined]);
    return result;
}

// ---------------------------------------------------- processor (4.7)

ProcessorSummary
buildProcessorSummary(const AdderExperimentResult &adder,
                      const RegFileArmResult &int_isv,
                      const RegFileArmResult &fp_isv,
                      const SchedulerProtectedResult &scheduler,
                      const WorkloadSet &workload,
                      const ExperimentOptions &options)
{
    assert(int_isv.arm.isv && fp_isv.arm.isv);
    ProcessorSummary summary;

    // Combined CPI with both cache mechanisms active (the
    // cross-impact of the two mechanisms requires a joint run;
    // Section 4.2).  LineFixed50% is the paper's 4.7 configuration;
    // LineDynamic60% is the best Table-3 mechanism.
    const CacheConfig dl0;
    const CacheConfig dtlb = CacheConfig::tlb(128, 8);
    const auto samples = simulateMemLosses(
        workload, evalTraces(workload, options), options.cacheUops,
        {{dl0, dtlb, MechanismKind::LineFixed50,
          MechanismKind::LineFixed50},
         {dl0, dtlb, MechanismKind::LineDynamic60,
          MechanismKind::LineDynamic60}},
        MemTimingParams(), options.mechanismTimeScale, options.jobs,
        options.pool, options.cache);
    summary.combinedCpi = foldNormalizedCpi(samples[0]);
    summary.combinedCpiDynamic = foldNormalizedCpi(samples[1]);

    // Per-block costs.  TDP factors are the paper's stated
    // overheads: RINV+timestamps <1% (RF), RINV+counters <2%
    // (scheduler), extra line + INVCOUNT <1% (DL0).
    const double worst_adder_guardband =
        adder.scenarios.empty() ? 0.074
                                : adder.scenarios.front().guardband;
    summary.blocks.push_back(
        {"adder", 1.0, worst_adder_guardband, 1.0, 1.0});
    summary.blocks.push_back(
        {"register file", 1.0,
         std::max(int_isv.guardband, fp_isv.guardband), 1.01,
         1.0});
    summary.blocks.push_back(
        {"scheduler", 1.0, scheduler.guardband, 1.02, 1.0});
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    summary.blocks.push_back(
        {"DL0", 1.0, model.balancedGuardband(), 1.01, 1.0});
    summary.blocks.push_back(
        {"DTLB", 1.0, model.balancedGuardband(), 1.0, 1.0});

    ProcessorCost cost(summary.combinedCpi);
    for (const auto &b : summary.blocks)
        cost.addBlock(b);
    summary.penelopeEfficiency = cost.efficiency();
    summary.maxGuardband = cost.guardband();

    ProcessorCost cost_dyn(summary.combinedCpiDynamic);
    for (const auto &b : summary.blocks)
        cost_dyn.addBlock(b);
    summary.penelopeEfficiencyDynamic = cost_dyn.efficiency();

    // Baseline: full 20% guardband everywhere, no mechanism.
    summary.baselineEfficiency = nbtiEfficiency(1.0, 0.20, 1.0);
    // Periodic inversion: 10% cycle-time hit, minimum guardband,
    // memory-like blocks only (Section 4.2: 1.41).
    summary.invertEfficiency =
        nbtiEfficiency(1.10, model.balancedGuardband(), 1.0);
    return summary;
}

PipelineSurvey
runPipelineSurvey(const WorkloadSet &workload,
                  const ExperimentOptions &options)
{
    PipelineSurvey survey;
    const PipelineConfig cfg;
    const auto shards = runPipelinePerSuite(workload, options, cfg,
                                            options.uopsPerTrace / 2);

    RunningStats cpi;
    RunningStats sched_occ;
    RunningStats int_free;
    RunningStats fp_free;
    RunningStats int_port;
    RunningStats fp_port;
    RunningStats sched_port;
    RunningStats mru[3];

    for (const PipelineStats &s : shards) {
        cpi.add(s.cpi);
        sched_occ.add(s.schedOccupancy);
        int_free.add(1.0 - s.intRfOccupancy);
        fp_free.add(1.0 - s.fpRfOccupancy);
        int_port.add(s.intRfPortFree);
        fp_port.add(s.fpRfPortFree);
        sched_port.add(s.schedPortFree);
        for (unsigned m = 0; m < 3; ++m)
            mru[m].add(s.mruHitFraction[m]);
    }

    survey.cpi = cpi.mean();
    survey.schedOccupancy = sched_occ.mean();
    survey.intRfFree = int_free.mean();
    survey.fpRfFree = fp_free.mean();
    survey.intRfPortFree = int_port.mean();
    survey.fpRfPortFree = fp_port.mean();
    survey.schedPortFree = sched_port.mean();
    for (unsigned m = 0; m < 3; ++m)
        survey.mruHitFraction[m] = mru[m].mean();
    return survey;
}

} // namespace penelope
