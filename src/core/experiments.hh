/**
 * @file
 * Canned experiment runners reproducing the paper's evaluation.
 *
 * Each runner corresponds to a figure/table of the paper and is
 * shared between the benchmark binaries, the examples and the
 * integration tests.  A runner computes only the arms its caller
 * asks for (the scheduler's baseline/protected arms, the register
 * files' ISV-off/on arms, the adder's guardbands apart from its
 * pipeline utilisation), so an experiment pays for what it prints;
 * an arm's cache key and payload do not depend on which other arms
 * were asked for.  Runtime is controlled by ExperimentOptions
 * (trace subsetting and per-trace uop counts); the defaults complete
 * in seconds while preserving the statistical shape of the full
 * 531-trace runs.
 */

#ifndef PENELOPE_CORE_EXPERIMENTS_HH
#define PENELOPE_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <optional>
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

    /** Seeded audit fraction: exact-evaluate this share of the
     *  candidates the surrogate triage of attack-search prunes.
     *  1.0 prices every candidate exactly and bypasses the
     *  surrogate (training replays included).  Printed statistics
     *  come from the exact engine in every mode. */
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

/** Figure 4 and Figure 5's guardbands: what Table 4 rolls up. */
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

    /** NBTIefficiency at the worst-case (30%) utilisation. */
    double efficiency = 0.0;
};

AdderExperimentResult
runAdderExperiment(const WorkloadSet &workload,
                   const ExperimentOptions &options);

/** Adder utilisation measured in the pipeline (Figure 5's
 *  operating points), per allocation policy. */
struct AdderUtilization
{
    double priorityMin = 0.0; ///< least-used adder, priority policy
    double priorityMax = 0.0; ///< most-used adder, priority policy
    double uniform = 0.0;     ///< mean adder, uniform policy
};

/** One pipeline run per policy on one trace per suite (cached,
 *  never sharded). */
AdderUtilization
runAdderUtilization(const WorkloadSet &workload,
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

/** One Figure-6 arm: the INT or FP register file, ISV off or on. */
struct RegFileArm
{
    bool fp = false;
    bool isv = false;
};

/** Figure 6 results for one arm. */
struct RegFileArmResult
{
    std::string name; ///< "INT-RF" or "FP-RF"
    RegFileArm arm;
    std::vector<double> bias; ///< per bit, towards "0"
    double worst = 0.0;       ///< max over bits of max(p, 1-p)
    double guardband = 0.0;
    /** Paper: 54% INT / 69% FP; ISV does not move it. */
    double freeFraction = 0.0;
    IsvStats isvStats; ///< all zero with ISV off
};

/**
 * Figure 6 for each of @p arms, and nothing else.  Per trace, the
 * engine (Engine::streamCached) hands the missing arms to one pass,
 * which replays the arms of each register file on one timeline (a
 * RegFilePass per file).  Results follow @p arms order.
 */
std::vector<RegFileArmResult>
runRegFileExperiment(const WorkloadSet &workload,
                     const std::vector<RegFileArm> &arms,
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

/** The Figure-8 arms a scheduler run computes. */
enum class SchedulerArms
{
    Baseline,  ///< protection off
    Protected, ///< the profiled protection on
    Both,
};

/** One Figure-8 arm. */
struct SchedulerArmResult
{
    std::vector<double> bias; ///< 144 bits, layout order
    double worstFig8 = 0.0;
    double occupancy = 0.0; ///< paper: 63%; protection does not move it
};

/** The protected arm, with the decisions behind it. */
struct SchedulerProtectedResult : SchedulerArmResult
{
    std::vector<FieldTechniqueSummary> techniques;
    double guardband = 0.0;
    double efficiency = 0.0;
};

/** Figure 8 results: only the arms that were asked for are set. */
struct SchedulerExperimentResult
{
    std::optional<SchedulerArmResult> baseline;
    std::optional<SchedulerProtectedResult> protectedArm;
};

/**
 * Figure 8 for @p arms.  Per evaluation trace, the engine hands the
 * missing arms to one SchedulerPass, which replays them on one
 * timeline.  The profile and the protection decisions are computed
 * only for the protected arm.
 */
SchedulerExperimentResult
runSchedulerExperiment(const WorkloadSet &workload,
                       SchedulerArms arms,
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

/** The roll-up reads only the protected guardbands: the ISV arms
 *  of both register files and the protected scheduler arm. */
ProcessorSummary
buildProcessorSummary(const AdderExperimentResult &adder,
                      const RegFileArmResult &int_isv,
                      const RegFileArmResult &fp_isv,
                      const SchedulerProtectedResult &scheduler,
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
    double mruHitFraction[3] = {0, 0, 0}; ///< MRU, MRU+1, rest
};

/** The survey over each suite's first trace, on the default
 *  (Uniform adder policy) pipeline. */
PipelineSurvey
runPipelineSurvey(const WorkloadSet &workload,
                  const ExperimentOptions &options);

} // namespace penelope

#endif // PENELOPE_CORE_EXPERIMENTS_HH
