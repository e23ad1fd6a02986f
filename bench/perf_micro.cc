/**
 * @file
 * Google-benchmark microbenchmarks of the library's hot paths:
 * netlist evaluation, cache accesses, trace generation, the RD
 * aging model and the scheduler repair machinery.  These guard the
 * simulation throughput the experiment harnesses depend on.
 *
 * The Engine* benchmarks run whole experiments through the parallel
 * experiment engine at several --jobs settings (argument = worker
 * count); on an N-core machine jobs:N should approach an N-fold
 * real-time speedup over jobs:1 because per-trace simulations share
 * no state.  Results are recorded in BENCH_perf.json
 * (--benchmark_out=BENCH_perf.json --benchmark_out_format=json).
 */

#include <benchmark/benchmark.h>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "cache/timing.hh"
#include "circuit/aging.hh"
#include "common/threadpool.hh"
#include "core/experiments.hh"
#include "core/resultcache.hh"
#include "core/serialize.hh"
#include "core/surrogate_sweep.hh"
#include "nbti/rd_model.hh"
#include "netlist_reference.hh"
#include "obs/metrics.hh"
#include "pipeline/pipeline.hh"
#include "regfile/driver.hh"
#include "scheduler/driver.hh"
#include "trace/workload.hh"

using namespace penelope;

namespace {

// ------------------------------------------------------ hot paths

/** The scalar gate-list interpreter of the tests' reference model
 *  (tests/netlist_reference.hh), one vector per call: the baseline
 *  the batched engine's per-vector speedup is measured against. */
void
BM_LadnerFischerEvaluate(benchmark::State &state)
{
    LadnerFischerAdder adder(32);
    Rng rng(1);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        sum += reference::evaluate(adder, rng() & 0xffffffff,
                                   rng() & 0xffffffff, rng.nextBool());
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LadnerFischerEvaluate);

/** The word-parallel netlist engine: 64 input vectors per pass.
 *  items/s counts vectors, so the per-vector speedup over
 *  BM_LadnerFischerEvaluate is the ratio of the two
 *  items_per_second counters (the CI perf-smoke floor asserts
 *  >= 10x). */
void
BM_NetlistEvaluateBatch(benchmark::State &state)
{
    LadnerFischerAdder adder(32);
    Rng rng(1);
    std::uint64_t a[64];
    std::uint64_t b[64];
    for (int i = 0; i < 64; ++i) {
        a[i] = rng() & 0xffffffff;
        b[i] = rng() & 0xffffffff;
    }
    const std::uint64_t cin_mask = rng();
    std::vector<std::uint64_t> words;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        adder.evaluateBatchWide(a, b, &cin_mask, 1, words);
        acc += words.back();
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetlistEvaluateBatch);

/** Batched throughput on the Kogge-Stone adder, the INV-heaviest
 *  topology and the one the optimizing compiler shrinks most.
 *  items/s counts vectors. */
void
BM_KoggeStoneEvaluateBatch(benchmark::State &state)
{
    KoggeStoneAdder adder(32);
    Rng rng(1);
    std::uint64_t a[64];
    std::uint64_t b[64];
    for (int i = 0; i < 64; ++i) {
        a[i] = rng() & 0xffffffff;
        b[i] = rng() & 0xffffffff;
    }
    const std::uint64_t cin_mask = rng();
    std::vector<std::uint64_t> words;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        adder.evaluateBatchWide(a, b, &cin_mask, 1, words);
        acc += words.back();
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_KoggeStoneEvaluateBatch);

/** Batched aging observe: 64 vectors charged per call as popcounts
 *  of the complemented net lane words. */
void
BM_AgingObserveBatch(benchmark::State &state)
{
    LadnerFischerAdder adder(32);
    PmosAgingTracker tracker(adder.netlist());
    Rng rng(1);
    std::uint64_t a[64];
    std::uint64_t b[64];
    for (int i = 0; i < 64; ++i) {
        a[i] = rng() & 0xffffffff;
        b[i] = rng() & 0xffffffff;
    }
    const std::uint64_t cin_mask = rng();
    std::vector<std::uint64_t> words;
    adder.evaluateBatchWide(a, b, &cin_mask, 1, words);
    for (auto _ : state)
        tracker.observeBatch(words.data(), ~std::uint64_t(0));
    benchmark::DoNotOptimize(tracker.zeroProb(0));
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AgingObserveBatch);

/** End-to-end batched aging of real operand samples (the Figure-5
 *  real-input path): transpose + netlist batch + popcount observe
 *  per 64 samples. */
void
BM_AdderAgingPipeline(benchmark::State &state)
{
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    const auto ops = collectAdderOperands(gen, 2048);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    for (auto _ : state) {
        const auto probs = analysis.zeroProbsForOperands(ops);
        benchmark::DoNotOptimize(probs.data());
    }
    state.SetItemsProcessed(state.iterations() * ops.size());
}
BENCHMARK(BM_AdderAgingPipeline)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------- surrogate triage

/** One exact candidate evaluation: the unit the surrogate's triage
 *  avoids.  Compare with BM_SurrogateFeatures + BM_SurrogatePredict
 *  for the cheap-tier cost ratio (the CI Release floor asserts the
 *  predict step alone is >= 100x cheaper same-run). */
void
BM_AttackCandidateExact(benchmark::State &state)
{
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    Rng rng(mixSeed(0x5a11'7e57'0b5eULL, 0xbe9c4));
    const AttackConfig attack = randomAttackCandidate(rng);
    for (auto _ : state) {
        const CandidateEval eval =
            evaluateCandidateExact(analysis, attack, 2048);
        benchmark::DoNotOptimize(eval.score);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttackCandidateExact)->Unit(benchmark::kMicrosecond);

/** Feature extraction for one candidate: the per-input-bit zero
 *  duties of its 64-sample stream prefix, in closed form. */
void
BM_SurrogateFeatures(benchmark::State &state)
{
    Rng rng(mixSeed(0x5a11'7e57'0b5eULL, 0xbe9c4));
    const AttackConfig attack = randomAttackCandidate(rng);
    for (auto _ : state) {
        const auto features = candidateFeatures(attack, 32);
        benchmark::DoNotOptimize(features.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SurrogateFeatures);

/** The closed-form predictor on a pre-extracted feature vector. */
void
BM_SurrogatePredict(benchmark::State &state)
{
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    TriageStats stats;
    SurrogateFitConfig config;
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, 32, config, 256, engine, nullptr, stats);
    Rng rng(mixSeed(0x5a11'7e57'0b5eULL, 0xbe9c4));
    const auto features =
        candidateFeatures(randomAttackCandidate(rng), 32);
    double sink = 0.0;
    for (auto _ : state)
        sink += fit.predict(features);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SurrogatePredict);

/** Surrogate fitting itself (ridge normal equations over the
 *  training pool's feature/score pairs), excluding the exact
 *  evaluations that price the pool. */
void
BM_SurrogateFitSolve(benchmark::State &state)
{
    std::vector<SurrogateSample> samples(96);
    Rng rng(0x5eed);
    for (auto &s : samples) {
        s.features.resize(65);
        for (auto &f : s.features)
            f = rng.nextDouble();
        s.score = rng.nextDouble() * 0.05;
    }
    const SurrogateFitConfig config;
    for (auto _ : state) {
        const SurrogateFit fit = fitSurrogate(samples, config);
        benchmark::DoNotOptimize(fit.coeffs.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SurrogateFitSolve)->Unit(benchmark::kMicrosecond);

/** attack-search's shipping sweep over a 1024-candidate pool:
 *  exhaustive (arg 0) or pruned by a freshly fitted surrogate
 *  (arg 1, its training replays charged to it).  Each iteration
 *  memoises into a fresh cache that must never hit, so both arms
 *  pay their full cost (the CI floor asserts arm 0 takes >= 3x
 *  arm 1). */
void
BM_CandidateSweep(benchmark::State &state)
{
    const ExperimentOptions options;
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    std::vector<AttackConfig> pool;
    for (std::size_t i = 0; i < 1024; ++i) {
        Rng rng(mixSeed(options.surrogateSeed, 0x9001'0000ULL + i));
        pool.push_back(randomAttackCandidate(rng));
    }
    CandidateSweepConfig config;
    config.triage = state.range(0) != 0;
    config.exactSamples = options.attackSearchExactSamples;
    config.triageConfig.topK = options.surrogateTopK;
    config.triageConfig.auditFraction = options.surrogateAuditFraction;
    config.triageConfig.auditSeed =
        mixSeed(options.surrogateSeed, 0xa0d17);
    SurrogateFitConfig fit_config;
    fit_config.seed = mixSeed(options.surrogateSeed, 0xf17);

    for (auto _ : state) {
        ResultCache memo;
        SurrogateFit fit;
        if (config.triage) {
            TriageStats stats;
            fit = trainAttackSurrogate(
                analysis, options.surrogateTrainCandidates,
                fit_config, config.exactSamples, engine, &memo,
                stats);
        }
        const CandidateSweepResult result = sweepAttackCandidates(
            analysis, pool, config.triage ? &fit : nullptr, config,
            engine, &memo);
        benchmark::DoNotOptimize(result.best.score);
        if (memo.stats().hits) {
            state.SkipWithError("memo hit: an arm skipped work");
            break;
        }
    }
    state.SetItemsProcessed(state.iterations() * pool.size());
}
BENCHMARK(BM_CandidateSweep)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc += static_cast<std::uint64_t>(gen.next().cls);
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

/** BM_TraceGeneration on the replay stream the scheduler and
 *  register-file experiments read (no address generator). */
void
BM_ReplayTraceGeneration(benchmark::State &state)
{
    WorkloadSet workload;
    TraceGenerator gen = workload.replayGenerator(0);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc += static_cast<std::uint64_t>(gen.next().cls);
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplayTraceGeneration);

/** What BM_TraceGeneration leaves out of its timed loop: building a
 *  generator (its Rngs, value and address generators, Zipf table)
 *  and its first 1k uops, as every per-trace simulation does. */
void
BM_TraceGeneratorSetup(benchmark::State &state)
{
    WorkloadSet workload;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        TraceGenerator gen = workload.generator(7);
        for (int i = 0; i < 1000; ++i)
            acc += gen.next().addr;
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TraceGeneratorSetup)->Unit(benchmark::kMicrosecond);

/** BM_TraceGeneratorSetup for a replay generator: no Zipf table. */
void
BM_ReplayTraceGeneratorSetup(benchmark::State &state)
{
    WorkloadSet workload;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        TraceGenerator gen = workload.replayGenerator(7);
        for (int i = 0; i < 1000; ++i)
            acc += gen.next().srcVal1;
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ReplayTraceGeneratorSetup)
    ->Unit(benchmark::kMicrosecond);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache{CacheConfig()};
    Rng rng(2);
    Cycle now = 0;
    for (auto _ : state)
        cache.access(rng.nextInt(1 << 20) * 64, ++now);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CacheAccessLineFixed(benchmark::State &state)
{
    Cache cache(CacheConfig(),
                mechanismParams(MechanismKind::LineFixed50, CacheConfig(),
                                false));
    Rng rng(3);
    Cycle now = 0;
    for (auto _ : state) {
        cache.tick(now);
        cache.access(rng.nextInt(1 << 20) * 64, ++now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessLineFixed);

/** The Table 3 unit of work on the hit path: one DL0 + DTLB timing
 *  sim (arg 0 = baseline, 1 = LineFixed50% on both) built and fed
 *  10k pre-generated uops of workload trace 7, which hit the
 *  baseline DL0 92% and the DTLB 98% of the time, about Table 3's
 *  rates (BM_CacheAccess almost always misses).  items_per_second
 *  counts fed uops; its inverse is the time per uop.  (No custom
 *  counter: the CSV reporter needs every row to carry the same
 *  ones.) */
void
BM_MemTimingSim(benchmark::State &state)
{
    constexpr std::size_t kUops = 10'000;
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(7);
    std::vector<Uop> uops(kUops);
    for (Uop &uop : uops)
        uop = gen.next();
    const MechanismKind mechanism = state.range(0) == 0
        ? MechanismKind::None : MechanismKind::LineFixed50;
    double cycles = 0.0;
    for (auto _ : state) {
        MemTimingSim sim(CacheConfig(), CacheConfig::tlb(128, 8),
                         MemTimingParams(), mechanism, mechanism);
        sim.feed(uops.data(), uops.size());
        cycles += sim.result().cycles;
    }
    benchmark::DoNotOptimize(cycles);
    state.SetItemsProcessed(state.iterations() * kUops);
}
BENCHMARK(BM_MemTimingSim)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/** The duty-accounting kernel itself: observe values of mixed
 *  density at mixed dt, the pattern the replay drivers produce.
 *  Arg = tracker width (32 = INT RF / scheduler fields, 64 = cache
 *  data images, 80 = FP RF). */
void
BM_BitBiasObserve(benchmark::State &state)
{
    const unsigned width = static_cast<unsigned>(state.range(0));
    Rng rng(4);
    std::vector<BitWord> values;
    std::vector<std::uint64_t> dts;
    for (int i = 0; i < 4096; ++i) {
        std::uint64_t lo = rng();
        std::uint64_t hi = rng();
        const int kind = static_cast<int>(rng.nextInt(4));
        if (kind == 0) {
            lo = hi = 0;
        } else if (kind == 1) {
            lo &= rng() & rng();
            hi &= rng() & rng();
        }
        values.emplace_back(width, lo, hi);
        dts.push_back(1 + rng.nextInt(256));
    }
    BitBiasTracker tracker(width);
    std::size_t i = 0;
    for (auto _ : state) {
        tracker.observe(values[i & 4095], dts[i & 4095]);
        ++i;
    }
    benchmark::DoNotOptimize(tracker.maxZeroProbability());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitBiasObserve)->Arg(32)->Arg(64)->Arg(80);

/** The batched sibling: 64 values per observeBatch call, packed
 *  as per-bit lane words (the transpose64x64 layout).  Items =
 *  values observed, directly comparable per item to
 *  BM_BitBiasObserve at dt-heavy call mixes. */
void
BM_BitBiasObserveBatch(benchmark::State &state)
{
    const unsigned width = static_cast<unsigned>(state.range(0));
    Rng rng(4);
    std::vector<std::uint64_t> words(width);
    for (std::uint64_t &word : words)
        word = rng();
    BitBiasTracker tracker(width);
    for (auto _ : state)
        tracker.observeBatch(words.data(), ~std::uint64_t(0));
    benchmark::DoNotOptimize(tracker.maxZeroProbability());
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BitBiasObserveBatch)->Arg(32)->Arg(64)->Arg(80);

void
BM_RdModelObserve(benchmark::State &state)
{
    RdModel model;
    bool level = false;
    for (auto _ : state) {
        model.observe(level, 1.0);
        level = !level;
    }
    benchmark::DoNotOptimize(model.nit());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RdModelObserve);

void
BM_SchedulerReplay(benchmark::State &state)
{
    WorkloadSet workload;
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig{});
    TraceGenerator gen = workload.replayGenerator(0);
    for (auto _ : state)
        replay.run(gen, 256);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SchedulerReplay);

/** BM_SchedulerReplay with protection on, as fig8's protected arm
 *  runs it: decisions from a two-trace profile, so every release
 *  repairs the slot (Section 4.5).  The uops are generated up front;
 *  each iteration feeds the next 256. */
void
BM_SchedulerReplayProtected(benchmark::State &state)
{
    constexpr std::size_t kUops = 16'384;
    WorkloadSet workload;
    const std::vector<BitDecision> decisions = decideProtection(
        profileScheduler(workload, {0, 200}, 10'000).bits);
    SchedulerPass pass(SchedReplayConfig{}, decisions, {true});
    TraceGenerator gen = workload.replayGenerator(0);
    std::vector<Uop> uops(kUops);
    for (Uop &u : uops)
        u = gen.next();
    std::size_t at = 0;
    for (auto _ : state) {
        pass.feed(uops.data() + at, 256);
        at = (at + 256) % kUops;
    }
    benchmark::DoNotOptimize(pass.results());
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SchedulerReplayProtected);

void
BM_RegFileReplay(benchmark::State &state)
{
    WorkloadSet workload;
    RegisterFile rf{RegFileConfig()};
    rf.enableIsv(true);
    RegFileReplay replay(rf, RegReplayConfig{});
    TraceGenerator gen = workload.replayGenerator(1);
    for (auto _ : state)
        replay.run(gen, 256);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RegFileReplay);

/** The next @p n uops of a workload trace, generated up front. */
std::vector<Uop>
pregenerated(unsigned trace, std::size_t n)
{
    WorkloadSet workload;
    TraceGenerator gen = workload.replayGenerator(trace);
    std::vector<Uop> uops(n);
    for (Uop &u : uops)
        u = gen.next();
    return uops;
}

/** Both fig8 arms of one trace, unprotected and protected, on one
 *  shared replay timeline as one streamed pass feeds them; each
 *  iteration feeds the next 256 of 16,384 pre-generated uops. */
void
BM_SchedulerArms(benchmark::State &state)
{
    constexpr std::size_t kUops = 16'384;
    WorkloadSet workload;
    const std::vector<BitDecision> decisions = decideProtection(
        profileScheduler(workload, {0, 200}, 10'000).bits);
    SchedulerPass pass(SchedReplayConfig{}, decisions, {false, true});
    const std::vector<Uop> uops = pregenerated(0, kUops);
    std::size_t at = 0;
    for (auto _ : state) {
        pass.feed(uops.data() + at, 256);
        at = (at + 256) % kUops;
    }
    benchmark::DoNotOptimize(pass.results());
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SchedulerArms);

/** Both fig6 arms of the INT register file, ISV off and on, fed
 *  the same way as BM_SchedulerArms. */
void
BM_RegFileArms(benchmark::State &state)
{
    constexpr std::size_t kUops = 16'384;
    RegFilePass pass(RegReplayConfig{}, RegFileConfig{}, {false, true});
    const std::vector<Uop> uops = pregenerated(1, kUops);
    std::size_t at = 0;
    for (auto _ : state) {
        pass.feed(uops.data() + at, 256);
        at = (at + 256) % kUops;
    }
    benchmark::DoNotOptimize(pass.results());
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RegFileArms);

/** One whole run of the default pipeline: 10,000 uops of trace 0,
 *  generated as the run consumes them, as runPipelineSurvey and
 *  runAdderUtilization run each trace. */
void
BM_PipelineRun(benchmark::State &state)
{
    constexpr std::size_t kUops = 10'000;
    WorkloadSet workload;
    for (auto _ : state) {
        Pipeline pipe{PipelineConfig{}};
        TraceGenerator gen = workload.generator(0);
        benchmark::DoNotOptimize(pipe.run(gen, kUops).cycles);
    }
    state.SetItemsProcessed(state.iterations() * kUops);
}
BENCHMARK(BM_PipelineRun)->Unit(benchmark::kMillisecond);

// ------------------------------------ parallel experiment engine

/** Engine sizing for the serial-vs-parallel comparisons: small
 *  enough to iterate, large enough that per-trace work dominates
 *  the pool overhead. */
ExperimentOptions
engineOptions(unsigned jobs)
{
    ExperimentOptions options;
    options.traceStride = 16;
    options.uopsPerTrace = 10'000;
    options.cacheUops = 10'000;
    options.jobs = jobs;
    return options;
}

void
BM_EngineRegFileExperiment(benchmark::State &state)
{
    WorkloadSet workload;
    const ExperimentOptions options =
        engineOptions(static_cast<unsigned>(state.range(0)));
    // INT and FP, ISV off and on: one streamed pass per trace feeds
    // all four register-file variants.
    for (auto _ : state) {
        const auto r = runRegFileExperiment(
            workload,
            {{false, false}, {false, true}, {true, false}, {true, true}},
            options);
        benchmark::DoNotOptimize(r.back().worst);
    }
}
BENCHMARK(BM_EngineRegFileExperiment)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_EnginePerfLoss(benchmark::State &state)
{
    WorkloadSet workload;
    const ExperimentOptions options =
        engineOptions(static_cast<unsigned>(state.range(0)));
    const auto traces = workload.strided(options.traceStride);
    for (auto _ : state) {
        const MemLossQuery query{CacheConfig(), CacheConfig::tlb(128, 8),
                                 MechanismKind::LineFixed50,
                                 MechanismKind::None};
        const PerfLossStats stats = foldPerfLoss(
            simulateMemLosses(workload, traces, options.cacheUops,
                              {query}, MemTimingParams(),
                              options.mechanismTimeScale, options.jobs)
                .front(),
            true);
        benchmark::DoNotOptimize(stats.meanLoss);
    }
}
BENCHMARK(BM_EnginePerfLoss)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_Table3Grid(benchmark::State &state)
{
    // The whole Table-3 grid plus its ablation and combined CPI: one
    // shared trace pass per trace drives all 29 configurations, each
    // simulating only its mechanised structure against the trace's
    // nine shared miss streams (39 structures per memory uop).
    WorkloadSet workload;
    const ExperimentOptions options =
        engineOptions(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const Table3Result r = runTable3Experiment(workload, options);
        benchmark::DoNotOptimize(r.combinedCpi);
    }
}
BENCHMARK(BM_Table3Grid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_ParallelForOverhead(benchmark::State &state)
{
    // Empty bodies: measures pure pool spin-up/teardown per call,
    // the fixed cost an experiment pays for going parallel.
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        parallelFor(64, jobs, [](std::size_t i) {
            benchmark::DoNotOptimize(i);
        });
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelForOverhead)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

void
BM_ParallelForPersistentPool(benchmark::State &state)
{
    // Same empty-body region dispatched onto a resident pool (the
    // penelope_bench configuration): the per-region cost drops
    // from thread spin-up to queue round-trips.
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    ThreadPool pool(jobs);
    for (auto _ : state) {
        parallelFor(
            64, jobs,
            [](std::size_t i) { benchmark::DoNotOptimize(i); },
            &pool);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelForPersistentPool)
    ->Arg(4)
    ->UseRealTime();

void
BM_ResultCacheKeyDigest(benchmark::State &state)
{
    // One full per-trace key: domain + a dozen typed fields.
    for (auto _ : state) {
        const Hash128 key = CacheKeyBuilder("bench-key")
                                .u32(128)
                                .u32(32)
                                .u32(0)
                                .u32(64)
                                .b(false)
                                .u32(64)
                                .f64(0.92)
                                .u64(0x4e60f11e)
                                .b(true)
                                .u64(40'000)
                                .u64(0x123456789abcdef0ULL)
                                .u32(42)
                                .digest();
        benchmark::DoNotOptimize(key);
    }
}
BENCHMARK(BM_ResultCacheKeyDigest);

void
BM_ResultCacheLookup(benchmark::State &state)
{
    // In-memory hit path including payload decode: the entire
    // per-trace cost of a warm run (one SchedulerStress snapshot,
    // the largest cached type).
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig());
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    const SchedReplayResult r = replay.run(gen, 10'000);
    ByteWriter writer;
    encodeResult(writer, sched.snapshotStress(r.cycles));

    ResultCache cache;
    const Hash128 key = CacheKeyBuilder("bench").u32(1).digest();
    cache.store(key, writer.view());

    for (auto _ : state) {
        std::string payload;
        cache.lookup(key, payload);
        ByteReader reader(payload);
        SchedulerStress value;
        decodeResult(reader, value);
        benchmark::DoNotOptimize(value);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResultCacheLookup);

void
BM_ResultCacheStore(benchmark::State &state)
{
    // Encode + store of the same snapshot under rotating keys
    // (memory-backed; disk append adds one buffered fwrite).
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig());
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    const SchedReplayResult r = replay.run(gen, 10'000);
    const SchedulerStress stress = sched.snapshotStress(r.cycles);

    ResultCache cache;
    std::uint32_t serial = 0;
    for (auto _ : state) {
        ByteWriter writer;
        encodeResult(writer, stress);
        cache.store(
            CacheKeyBuilder("bench").u32(serial++).digest(),
            writer.view());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResultCacheStore);


// ---------------------------------------------- observability

/** One enabled counter increment: the full hot-path cost of an
 *  instrumentation site (relaxed enabled check + relaxed
 *  fetch_add on the shared slot). */
void
BM_ObsCounterInc(benchmark::State &state)
{
    const obs::ScopedEnable enable;
    const obs::Counter c =
        obs::Registry::instance().counter("perf.counter_inc");
    for (auto _ : state)
        c.add();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc);

/** The same site runtime-off: one relaxed load and branch. */
void
BM_ObsCounterIncDisabled(benchmark::State &state)
{
    const obs::ScopedEnable enable(false);
    const obs::Counter c =
        obs::Registry::instance().counter("perf.counter_inc_off");
    for (auto _ : state)
        c.add();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncDisabled);

/** One histogram record: bucket index (bit_width) + two bumps. */
void
BM_ObsHistogramRecord(benchmark::State &state)
{
    const obs::ScopedEnable enable;
    const obs::Histogram h =
        obs::Registry::instance().histogram("perf.hist_record",
                                            "us");
    std::uint64_t v = 1;
    for (auto _ : state) {
        h.record(v);
        v = v * 2862933555777941757ULL + 3037000493ULL;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

/** A full scrape: read every slot into a sorted snapshot.
 *  Cold-path (--metrics-dump, perfbench's traced pass), so
 *  ms-scale is acceptable; track it anyway. */
void
BM_ObsScrape(benchmark::State &state)
{
    const obs::ScopedEnable enable;
    obs::Registry::instance()
        .counter("perf.scrape_seed")
        .add();
    std::size_t n = 0;
    for (auto _ : state)
        n += obs::Registry::instance().scrape().metrics.size();
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScrape);

/** BM_SchedulerReplay with the registry enabled: the CI overhead
 *  floor asserts this within 3% of the metrics-off twin. */
void
BM_SchedulerReplayObsOn(benchmark::State &state)
{
    const obs::ScopedEnable enable;
    WorkloadSet workload;
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig{});
    TraceGenerator gen = workload.replayGenerator(0);
    for (auto _ : state)
        replay.run(gen, 256);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SchedulerReplayObsOn);

/** BM_NetlistEvaluateBatch with the registry enabled (same 3%
 *  floor). */
void
BM_NetlistEvaluateBatchObsOn(benchmark::State &state)
{
    const obs::ScopedEnable enable;
    LadnerFischerAdder adder(32);
    Rng rng(1);
    std::uint64_t a[64];
    std::uint64_t b[64];
    for (int i = 0; i < 64; ++i) {
        a[i] = rng() & 0xffffffff;
        b[i] = rng() & 0xffffffff;
    }
    const std::uint64_t cin_mask = rng();
    std::vector<std::uint64_t> words;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        adder.evaluateBatchWide(a, b, &cin_mask, 1, words);
        acc += words.back();
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetlistEvaluateBatchObsOn);

/** Second registrations of the metrics-off twins: the CI overhead
 *  floor's off/off A/A control, timed in the same rounds. */
BENCHMARK(BM_SchedulerReplay)->Name("BM_SchedulerReplayAA");
BENCHMARK(BM_NetlistEvaluateBatch)->Name("BM_NetlistEvaluateBatchAA");

} // namespace

BENCHMARK_MAIN();
