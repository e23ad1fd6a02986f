/**
 * @file
 * Canned experiment runners reproducing the paper's evaluation.
 *
 * Each runner corresponds to a figure/table of the paper and is
 * shared between the benchmark binaries, the examples and the
 * integration tests.  Runtime is controlled by ExperimentOptions
 * (trace subsetting and per-trace uop counts); the defaults complete
 * in seconds while preserving the statistical shape of the full
 * 531-trace runs.
 */

#ifndef PENELOPE_CORE_EXPERIMENTS_HH
#define PENELOPE_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "adder/analysis.hh"
#include "cache/timing.hh"
#include "nbti/efficiency.hh"
#include "nbti/guardband.hh"
#include "pipeline/pipeline.hh"
#include "regfile/driver.hh"
#include "scheduler/profile.hh"
#include "trace/workload.hh"

namespace penelope {

class ThreadPool;
class ResultCache;

/** Experiment sizing knobs. */
struct ExperimentOptions
{
    /** Use every n-th trace of the 531 (1 = full workload). */
    unsigned traceStride = 8;

    /**
     * Worker threads for per-trace simulation.  Every runner fans
     * traces across the pool and merges per-trace results in trace
     * order, so any value produces statistics bit-identical to
     * jobs = 1.
     */
    unsigned jobs = 1;

    /**
     * Optional persistent worker pool (not owned).  When set, every
     * parallel region of every runner reuses these resident workers
     * instead of spinning a pool per region; `penelope_bench`
     * creates one pool per process.  Statistics are unaffected.
     */
    ThreadPool *pool = nullptr;

    /**
     * Optional content-addressed result cache (not owned).  Every
     * runner looks each per-trace result up by content hash before
     * simulating and stores it after; statistics are bit-identical
     * with or without a cache (see resultcache.hh).
     */
    ResultCache *cache = nullptr;

    /**
     * Suite-level scale-out: run only the shardIndex-th round-robin
     * slice (of shardCount) of each evaluation trace set.  Cheap
     * shared phases -- the scheduler profiling set and the
     * one-trace-per-suite maps -- run unsharded on every shard so
     * all shards derive identical protection decisions (and
     * therefore identical cache keys).  A shard's own stdout is
     * partial; `--merge` re-renders the full statistics from the
     * shards' exported cache entries.
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;

    /** Uops per trace for structure/bias experiments. */
    std::size_t uopsPerTrace = 40'000;

    /** Uops per trace for cache timing runs. */
    std::size_t cacheUops = 60'000;

    /** Operand samples for the adder electrical aging. */
    std::size_t adderOperandSamples = 2'000;

    /** Traces in the scheduler profiling set (paper: 100). */
    unsigned profilingTraces = 100;

    /** Scaling for mechanism warmup/test/period time constants. */
    double mechanismTimeScale = 0.05;

    // ------------------------------------------- surrogate triage

    /**
     * Surrogate triage for candidate sweeps (the attack-search
     * experiment).  False = exhaustive: every candidate is priced
     * by the exact engine and the surrogate is never consulted.
     * An audit fraction >= 1.0 is equivalent by construction --
     * every candidate is exact-evaluated, so the surrogate
     * (including its training replays) is bypassed entirely and
     * both stdout and cache traffic match the disabled mode byte
     * for byte.  Printed statistics come from the exact engine in
     * every mode.
     */
    bool surrogateEnabled = true;

    /** Seeded audit fraction: exact-evaluate this share of the
     *  pruned candidates as a spot check. */
    double surrogateAuditFraction = 0.03;

    /** Predicted-best candidates always evaluated exactly. */
    std::size_t surrogateTopK = 8;

    /**
     * Base seed of every surrogate-side stream (training pool,
     * train/holdout split, audit sampling, search mutations).
     * Derived via mixSeed with fixed stream tags, all disjoint
     * from the engine's per-trace streams.
     */
    std::uint64_t surrogateSeed = 0x5a11'7e57'0b5eULL;

    /** Training candidates behind the surrogate fit. */
    std::size_t surrogateTrainCandidates = 96;

    // --------------------------------------------- attack search

    /** Random restarts of the greedy mutation search. */
    std::size_t attackSearchRestarts = 4;

    /** Greedy generations per restart. */
    std::size_t attackSearchGenerations = 10;

    /** Mutation proposals per generation. */
    std::size_t attackSearchProposals = 32;

    /** Operand samples per exact candidate evaluation. */
    std::size_t attackSearchExactSamples = 2048;
};

/**
 * The evaluation subset of the workload: every traceStride-th
 * trace, restricted to this process's `--shard` slice.  Every
 * runner (and every ad-hoc catalog loop) draws its evaluation
 * traces from here so sharding covers the whole catalog.
 */
std::vector<unsigned>
evaluationTraces(const WorkloadSet &workload,
                 const ExperimentOptions &options);

// -------------------------------------------------------------- adder

/** Figure 4 + Figure 5 results. */
struct AdderExperimentResult
{
    std::vector<PairSweepEntry> pairSweep; ///< Figure 4
    InputPair bestPair = {0, 7};

    double baselineGuardband = 0.0; ///< real inputs all the time

    struct Scenario
    {
        double utilization;
        double guardband;
    };
    /** Figure 5 scenarios at 30% / 21% / 11% utilisation. */
    std::vector<Scenario> scenarios;

    /** Adder utilisation measured in the pipeline. */
    double priorityUtilMin = 0.0;
    double priorityUtilMax = 0.0;
    double uniformUtil = 0.0;

    /** NBTIefficiency at the worst-case (30%) utilisation. */
    double efficiency = 0.0;
};

AdderExperimentResult
runAdderExperiment(const WorkloadSet &workload,
                   const ExperimentOptions &options);

/**
 * Workload-wide adder operand samples: one trace per suite,
 * concatenated in suite order, cached under the "adder-operands"
 * domain.  Shared by the Figure-5 runner and the wearout-attack
 * experiment so both build identical cache keys (and warm runs
 * share entries).  One-trace-per-suite is cheap shared work, so it
 * is never sharded.
 */
std::vector<OperandSample>
collectWorkloadAdderOperands(const WorkloadSet &workload,
                             const ExperimentOptions &options);

// ------------------------------------------------------ register file

/** Figure 6 results for one register file. */
struct RegFileExperimentResult
{
    std::string name;
    std::vector<double> baselineBias; ///< per bit, towards "0"
    std::vector<double> isvBias;
    double baselineWorst = 0.0; ///< max over bits of max(p, 1-p)
    double isvWorst = 0.0;
    double freeFraction = 0.0;  ///< paper: 54% INT / 69% FP
    double guardbandBaseline = 0.0;
    double guardbandIsv = 0.0;
    IsvStats isvStats;
};

/**
 * Figure 6 for each register file of @p fp_files (false = INT,
 * true = FP), with ISV off and on: every variant of a trace is fed
 * by one streamed pass (Engine::streamCached).  Results follow
 * @p fp_files order.
 */
std::vector<RegFileExperimentResult>
runRegFileExperiment(const WorkloadSet &workload,
                     const std::vector<bool> &fp_files,
                     const ExperimentOptions &options);

// ---------------------------------------------------------- scheduler

/**
 * The paper-methodology profiling subset (drawn from the 100-trace
 * profiling sample, never sharded).  Shared by the Figure-8 runner
 * and the wearout-attack experiment so both derive identical
 * protection decisions -- and therefore identical cache keys -- for
 * the deployed configuration.
 */
std::vector<unsigned>
schedulerProfilingSubset(const WorkloadSet &workload,
                         const ExperimentOptions &options);

/** Figure 8 results. */
struct SchedulerExperimentResult
{
    std::vector<double> baselineBias;  ///< 144 bits, layout order
    std::vector<double> protectedBias;
    double baselineWorstFig8 = 0.0;
    double protectedWorstFig8 = 0.0;
    double occupancy = 0.0; ///< paper: 63%
    std::vector<FieldTechniqueSummary> techniques;
    double guardband = 0.0;
    double efficiency = 0.0;
};

/** Figure 8: protection off and on, fed by one streamed pass per
 *  evaluation trace. */
SchedulerExperimentResult
runSchedulerExperiment(const WorkloadSet &workload,
                       const ExperimentOptions &options);

// -------------------------------------------------------------- cache

/** One Table-3 row. */
struct Table3Row
{
    std::string label;
    bool isTlb = false;
    CacheConfig config;
    /** Losses for SetFixed50%, LineFixed50%, LineDynamic60%. */
    double loss[3] = {0, 0, 0};
    double invertRatio[3] = {0, 0, 0};
};

/** Table 3 plus the two runs priced alongside it. */
struct Table3Result
{
    std::vector<Table3Row> rows;

    /** WayFixed50% loss on the default DL0 (the Section-3.2.1
     *  ablation the paper describes but does not measure). */
    double wayFixedLoss = 0.0;

    /** Combined normalised CPI, LineFixed50% on DL0 + DTLB
     *  (the Section-4.7 input; paper: 1.007). */
    double combinedCpi = 1.0;
};

/** Every Table-3 cell, the ablation and the combined CPI, priced in
 *  one simulateMemLosses() pass per trace. */
Table3Result
runTable3Experiment(const WorkloadSet &workload,
                    const ExperimentOptions &options);

// ---------------------------------------------------- processor (4.7)

/** Section 4.7 roll-up. */
struct ProcessorSummary
{
    /** Combined CPI with LineFixed50% on DL0 + DTLB (the paper's
     *  4.7 configuration). */
    double combinedCpi = 1.0;

    /** Combined CPI with LineDynamic60% (the best Table-3
     *  mechanism; our synthetic population is more cache-sensitive
     *  than the paper's under LineFixed). */
    double combinedCpiDynamic = 1.0;

    std::vector<BlockCost> blocks;

    /** Roll-up with the LineFixed50% CPI (paper configuration). */
    double penelopeEfficiency = 0.0;

    /** Roll-up with the LineDynamic60% CPI. */
    double penelopeEfficiencyDynamic = 0.0;

    double baselineEfficiency = 0.0; ///< 20% guardband, no action
    double invertEfficiency = 0.0;   ///< periodic inversion
    double maxGuardband = 0.0;
};

ProcessorSummary
buildProcessorSummary(const AdderExperimentResult &adder,
                      const RegFileExperimentResult &int_rf,
                      const RegFileExperimentResult &fp_rf,
                      const SchedulerExperimentResult &scheduler,
                      const WorkloadSet &workload,
                      const ExperimentOptions &options);

/** Pipeline-level statistics on a subset (motivation numbers). */
struct PipelineSurvey
{
    double cpi = 0.0;
    double schedOccupancy = 0.0;
    double intRfFree = 0.0;
    double fpRfFree = 0.0;
    double intRfPortFree = 0.0;
    double fpRfPortFree = 0.0;
    double schedPortFree = 0.0;
    double adderUtil[4] = {0, 0, 0, 0};
    double mruHitFraction[3] = {0, 0, 0}; ///< MRU, MRU+1, rest
};

PipelineSurvey
runPipelineSurvey(const WorkloadSet &workload,
                  const ExperimentOptions &options,
                  AdderAllocationPolicy policy =
                      AdderAllocationPolicy::Uniform);

} // namespace penelope

#endif // PENELOPE_CORE_EXPERIMENTS_HH
