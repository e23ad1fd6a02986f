/**
 * @file
 * Tests for the parallel experiment engine: the thread pool, the
 * parallelFor primitive, mergeable statistics, the experiment
 * registry, and — the load-bearing property — that every experiment
 * produces bit-identical statistics for any worker count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cache/timing.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"
#include "core/engine.hh"
#include "core/serialize.hh"
#include "core/registry.hh"
#include "scheduler/profile.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// ------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    pool.submit([&counter] { ++counter; });
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, WaitRethrowsTaskException)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([] { throw std::runtime_error("task failed"); });
    pool.submit([&counter] { ++counter; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(counter.load(), 1);
    // The pool stays usable after a failed task.
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, AtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; });
    pool.wait();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, MemberParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    // The pool is reusable across parallel regions (this is the
    // persistent-pool property penelope_bench relies on).
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, MemberParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // Still usable afterwards.
    std::atomic<int> counter{0};
    pool.parallelFor(5, [&](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 5);
}

TEST(ParallelFor, SharedPoolMatchesPerCallPool)
{
    ThreadPool pool(4);
    for (unsigned jobs : {2u, 8u}) {
        std::vector<std::atomic<int>> hits(500);
        parallelFor(
            hits.size(), jobs,
            [&](std::size_t i) { ++hits[i]; }, &pool);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
    }
    // jobs <= 1 stays a strictly serial inline loop even with a
    // pool attached.
    std::vector<std::size_t> order;
    parallelFor(
        5, 1, [&](std::size_t i) { order.push_back(i); }, &pool);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ----------------------------------------------------- parallelFor

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> hits(1000);
        parallelFor(hits.size(), jobs,
                    [&](std::size_t i) { ++hits[i]; });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, MoreJobsThanItems)
{
    std::atomic<int> sum{0};
    parallelFor(3, 16, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelFor, EmptyRangeIsANoop)
{
    bool ran = false;
    parallelFor(0, 8, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        parallelFor(100, 4,
                    [](std::size_t i) {
                        if (i == 42)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(ParallelFor, SerialPathRunsInOrder)
{
    std::vector<std::size_t> order;
    parallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------- Engine

TEST(Engine, MapPreservesItemOrder)
{
    const Engine engine(4);
    std::vector<unsigned> items(64);
    std::iota(items.begin(), items.end(), 0u);
    // No cache: every slot misses and is computed.
    const auto squares = engine.mapCached<IsvStats>(
        items, nullptr,
        [](unsigned item, std::size_t) {
            return CacheKeyBuilder("square").u32(item).digest();
        },
        [](unsigned item, std::size_t) {
            IsvStats square;
            square.updatesApplied = item * item;
            return square;
        });
    ASSERT_EQ(squares.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(squares[i].updatesApplied, items[i] * items[i]);
}

/** Items with equal keys simulate once, whatever the job count:
 *  fn runs once per distinct key, duplicates copy its result, and
 *  the cache sees one lookup per distinct key. */
TEST(Engine, MapDuplicateKeysSimulateOnceForAnyJobs)
{
    // 96 items over 8 distinct keys.
    std::vector<unsigned> items(96);
    for (std::size_t i = 0; i < items.size(); ++i)
        items[i] = static_cast<unsigned>(i % 8);
    std::vector<ResultCache::Stats> stats;
    for (const unsigned jobs : {1u, 4u}) {
        ResultCache cache;
        std::atomic<unsigned> calls{0};
        const auto squares = Engine(jobs).mapCached<IsvStats>(
            items, &cache,
            [](unsigned item, std::size_t) {
                return CacheKeyBuilder("square").u32(item).digest();
            },
            [&](unsigned item, std::size_t) {
                ++calls;
                IsvStats square;
                square.updatesApplied = item * item;
                return square;
            });
        EXPECT_EQ(calls.load(), 8u) << "jobs " << jobs;
        for (std::size_t i = 0; i < items.size(); ++i)
            EXPECT_EQ(squares[i].updatesApplied, items[i] * items[i]);
        stats.push_back(cache.stats());
    }
    for (const ResultCache::Stats &s : stats) {
        EXPECT_EQ(s.hits, 0u);
        EXPECT_EQ(s.misses, 8u);
        EXPECT_EQ(s.stores, 8u);
    }
}

// ------------------------------------------------- streamed passes

/** A toy streamed pass: for each slot it was handed, folds the uops
 *  it is fed, scaled by the slot's weight, into counters that have
 *  a result-cache codec. */
struct FoldPass
{
    std::vector<std::uint64_t> weights; ///< per slot handed
    std::vector<IsvStats> folded;

    explicit FoldPass(std::vector<std::uint64_t> weights_)
        : weights(std::move(weights_)), folded(weights.size())
    {
    }

    void
    feed(const Uop *uops, std::size_t n)
    {
        for (std::size_t a = 0; a < weights.size(); ++a) {
            IsvStats &f = folded[a];
            for (std::size_t i = 0; i < n; ++i)
                f.updatesApplied =
                    f.updatesApplied * 31 + uops[i].dstVal * weights[a];
            f.updatesDiscarded += n;
            f.updatesSkipped = weights[a];
        }
    }

    std::vector<IsvStats> results() const { return folded; }
};

constexpr std::size_t kFoldUops = 2'500; // spans three chunks

/** What one slot of a pass must produce: a one-slot pass over a
 *  private generator fed one uop at a time. */
IsvStats
foldReference(const WorkloadSet &workload, unsigned index,
              std::uint64_t weight)
{
    FoldPass pass({weight});
    TraceGenerator gen = workload.generator(index);
    for (std::size_t i = 0; i < kFoldUops; ++i) {
        const Uop uop = gen.next();
        pass.feed(&uop, 1);
    }
    return pass.results().front();
}

/** Per trace index, the slot list of each pass built for it. */
using SlotLists = std::map<unsigned, std::vector<std::vector<std::size_t>>>;

/** Trace sources one foldPass() call generated and the slot lists
 *  it handed its passes. */
struct PassLog
{
    std::atomic<unsigned> sources{0};
    std::mutex mutex;
    SlotLists slots;
};

/** The log of one pass per trace of @p traces, each handed
 *  @p slots. */
SlotLists
handedEach(const std::vector<unsigned> &traces,
           const std::vector<std::size_t> &slots)
{
    SlotLists lists;
    for (const unsigned index : traces)
        lists[index].push_back(slots);
    return lists;
}

/** One streamCached() pass with a slot per weight; a slot's key is
 *  (trace, weight), so equal weights share a key. */
std::vector<std::vector<IsvStats>>
foldPass(const Engine &engine, const WorkloadSet &workload,
         const std::vector<unsigned> &traces,
         const std::vector<std::uint64_t> &weights, ResultCache *cache,
         PassLog &log)
{
    return engine.streamCached<IsvStats>(
        traces, weights.size(), kFoldUops, cache,
        [&](unsigned index, std::size_t slot) {
            return CacheKeyBuilder("fold-test")
                .u32(index)
                .u64(weights[slot])
                .digest();
        },
        [&](unsigned index) {
            ++log.sources;
            return workload.generator(index);
        },
        [&](unsigned index, const std::vector<std::size_t> &slots) {
            {
                const std::lock_guard<std::mutex> lock(log.mutex);
                log.slots[index].push_back(slots);
            }
            std::vector<std::uint64_t> handed;
            for (const std::size_t slot : slots)
                handed.push_back(weights[slot]);
            return FoldPass(std::move(handed));
        });
}

void
expectFoldsMatch(const std::vector<std::vector<IsvStats>> &got,
                 const WorkloadSet &workload,
                 const std::vector<unsigned> &traces,
                 const std::vector<std::uint64_t> &weights)
{
    ASSERT_EQ(got.size(), weights.size());
    for (std::size_t s = 0; s < weights.size(); ++s) {
        ASSERT_EQ(got[s].size(), traces.size());
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const IsvStats want =
                foldReference(workload, traces[t], weights[s]);
            EXPECT_EQ(got[s][t].updatesApplied, want.updatesApplied);
            EXPECT_EQ(got[s][t].updatesDiscarded,
                      want.updatesDiscarded);
            EXPECT_EQ(got[s][t].updatesSkipped, want.updatesSkipped);
        }
    }
}

TEST(StreamCached, NoCacheSimulatesEverySlotFromOneStream)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 5, 9};
    const std::vector<std::uint64_t> weights = {1, 2, 3};
    PassLog log;
    const auto folds = foldPass(Engine(2), workload, traces, weights,
                                nullptr, log);
    EXPECT_EQ(log.sources, traces.size());
    EXPECT_EQ(log.slots, handedEach(traces, {0, 1, 2}));
    expectFoldsMatch(folds, workload, traces, weights);
}

TEST(StreamCached, HalfFilledCacheSimulatesExactlyTheMisses)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 5, 9};
    const Engine engine(2);
    ResultCache cache;
    PassLog fill;
    foldPass(engine, workload, traces, {1, 3}, &cache, fill);
    ASSERT_EQ(cache.stats().stores, 6u);

    // Weights 1 and 3 hit; only 2 and 4 are simulated and stored.
    const std::vector<std::uint64_t> weights = {1, 2, 3, 4};
    const ResultCache::Stats before = cache.stats();
    PassLog half;
    expectFoldsMatch(
        foldPass(engine, workload, traces, weights, &cache, half),
        workload, traces, weights);
    EXPECT_EQ(half.sources, traces.size());
    EXPECT_EQ(half.slots, handedEach(traces, {1, 3}));
    EXPECT_EQ(cache.stats().hits - before.hits, 2 * traces.size());
    EXPECT_EQ(cache.stats().misses - before.misses, 2 * traces.size());
    EXPECT_EQ(cache.stats().stores - before.stores, 2 * traces.size());

    // Every key hits: nothing is generated, built or stored.
    const ResultCache::Stats warm = cache.stats();
    PassLog all_hit;
    expectFoldsMatch(
        foldPass(engine, workload, traces, weights, &cache, all_hit),
        workload, traces, weights);
    EXPECT_EQ(all_hit.sources, 0u);
    EXPECT_TRUE(all_hit.slots.empty());
    EXPECT_EQ(cache.stats().stores, warm.stores);
    EXPECT_EQ(cache.stats().misses, warm.misses);
}

TEST(StreamCached, CorruptPayloadIsRecomputed)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {7};
    const std::vector<std::uint64_t> weights = {2, 5};
    ResultCache cache;
    cache.store(CacheKeyBuilder("fold-test").u32(7).u64(2).digest(),
                "not a payload");
    PassLog log;
    expectFoldsMatch(
        foldPass(Engine(1), workload, traces, weights, &cache, log),
        workload, traces, weights);
    EXPECT_EQ(cache.stats().decodeFailures, 1u);
    EXPECT_EQ(log.sources, 1u);
    EXPECT_EQ(log.slots, handedEach(traces, {0, 1}));
    // The planted entry plus the clean miss's store.
    EXPECT_EQ(cache.stats().stores, 2u);
}

TEST(StreamCached, DuplicateKeysSimulateOnce)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 5, 9};
    const std::vector<std::uint64_t> weights = {2, 2, 5, 2};
    ResultCache cache;
    for (ResultCache *c : {static_cast<ResultCache *>(nullptr),
                           &cache}) {
        PassLog log;
        expectFoldsMatch(
            foldPass(Engine(2), workload, traces, weights, c, log),
            workload, traces, weights);
        EXPECT_EQ(log.slots, handedEach(traces, {0, 2}));
    }
    EXPECT_EQ(cache.stats().misses, 2 * traces.size());
    EXPECT_EQ(cache.stats().stores, 2 * traces.size());
}

TEST(StreamCached, JobsAndPoolAgree)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 3, 17, 40, 99, 200, 311};
    const std::vector<std::uint64_t> weights = {1, 7, 9};
    ThreadPool pool(3);
    for (const Engine &engine :
         {Engine(1), Engine(4), Engine(4, &pool)}) {
        PassLog log;
        expectFoldsMatch(
            foldPass(engine, workload, traces, weights, nullptr, log),
            workload, traces, weights);
        EXPECT_EQ(log.sources, traces.size());
    }
}

// ---------------------------------------------------------- merges

TEST(StatsMerge, MatchesSequentialAccumulation)
{
    Rng rng(7);
    std::vector<double> samples(500);
    for (double &s : samples)
        s = rng.nextDouble();

    RunningStats whole;
    for (double s : samples)
        whole.add(s);

    RunningStats left;
    RunningStats right;
    for (std::size_t i = 0; i < samples.size(); ++i)
        (i < 200 ? left : right).add(samples[i]);
    left.merge(right);

    EXPECT_EQ(left.count(), whole.count());
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
}

TEST(StatsMerge, MergeIntoEmptyCopies)
{
    RunningStats a;
    RunningStats b;
    b.add(2.0);
    b.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(SchedulerStressMerge, AggregatesTimeWeighted)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 100};

    // Two per-trace snapshots merged...
    std::vector<SchedulerStress> shards;
    for (unsigned index : traces) {
        Scheduler sched{SchedulerConfig{}};
        SchedReplayConfig cfg;
        cfg.seed = mixSeed(cfg.seed, index);
        SchedulerReplay replay(sched, cfg);
        TraceGenerator gen = workload.generator(index);
        const SchedReplayResult r = replay.run(gen, 2'000);
        shards.push_back(sched.snapshotStress(r.cycles));
    }
    SchedulerStress merged = shards.front();
    merged.merge(shards.back());

    EXPECT_EQ(merged.cycles,
              shards.front().cycles + shards.back().cycles);
    // ...bracket the aggregate between the per-trace extremes.
    const double lo = std::min(shards.front().occupancy(),
                               shards.back().occupancy());
    const double hi = std::max(shards.front().occupancy(),
                               shards.back().occupancy());
    EXPECT_GE(merged.occupancy(), lo - 1e-12);
    EXPECT_LE(merged.occupancy(), hi + 1e-12);
    EXPECT_EQ(merged.biasVector().size(),
              fieldLayout().totalBits());
}

// ------------------------------------------------ jobs determinism

ExperimentOptions
tinyOptions(unsigned jobs)
{
    ExperimentOptions options;
    options.traceStride = 97; // ~6 of the 531 traces
    options.uopsPerTrace = 2'000;
    options.cacheUops = 2'000;
    options.adderOperandSamples = 200;
    options.profilingTraces = 20;
    options.jobs = jobs;
    return options;
}

TEST(JobsDeterminism, RegFileExperiment)
{
    const WorkloadSet workload;
    const std::vector<RegFileArm> int_arms = {{false, false},
                                              {false, true}};
    const auto serial =
        runRegFileExperiment(workload, int_arms, tinyOptions(1));
    const auto parallel =
        runRegFileExperiment(workload, int_arms, tinyOptions(8));

    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);
    for (std::size_t a = 0; a < 2; ++a) {
        EXPECT_EQ(serial[a].bias, parallel[a].bias);
        EXPECT_EQ(serial[a].worst, parallel[a].worst);
        EXPECT_EQ(serial[a].freeFraction, parallel[a].freeFraction);
        EXPECT_EQ(serial[a].isvStats.updatesApplied,
                  parallel[a].isvStats.updatesApplied);
        EXPECT_EQ(serial[a].isvStats.updatesDiscarded,
                  parallel[a].isvStats.updatesDiscarded);
        EXPECT_EQ(serial[a].isvStats.updatesSkipped,
                  parallel[a].isvStats.updatesSkipped);
    }
}

TEST(JobsDeterminism, SchedulerExperiment)
{
    const WorkloadSet workload;
    const auto serial = runSchedulerExperiment(
        workload, SchedulerArms::Both, tinyOptions(1));
    const auto parallel = runSchedulerExperiment(
        workload, SchedulerArms::Both, tinyOptions(8));

    EXPECT_EQ(serial.baseline.value().bias,
              parallel.baseline.value().bias);
    EXPECT_EQ(serial.protectedArm.value().bias,
              parallel.protectedArm.value().bias);
    EXPECT_EQ(serial.baseline->worstFig8,
              parallel.baseline->worstFig8);
    EXPECT_EQ(serial.protectedArm->worstFig8,
              parallel.protectedArm->worstFig8);
    EXPECT_EQ(serial.protectedArm->occupancy,
              parallel.protectedArm->occupancy);
    EXPECT_EQ(serial.protectedArm->guardband,
              parallel.protectedArm->guardband);
}

/** One query's per-trace samples at 2000 uops per trace, time
 *  scale 0.05, on the default DL0 and a 128-entry DTLB. */
std::vector<MemLossSample>
memLosses(const WorkloadSet &workload,
          const std::vector<unsigned> &traces, MechanismKind dl0,
          MechanismKind dtlb, unsigned jobs, ThreadPool *pool = nullptr)
{
    const MemLossQuery query{CacheConfig(), CacheConfig::tlb(128, 8),
                             dl0, dtlb};
    return simulateMemLosses(workload, traces, 2'000, {query},
                             MemTimingParams(), 0.05, jobs, pool)
        .front();
}

TEST(JobsDeterminism, PerfLossAndCombinedCpi)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = workload.strided(97);
    const MechanismKind none = MechanismKind::None;
    const MechanismKind fixed = MechanismKind::LineFixed50;
    const MechanismKind dynamic = MechanismKind::LineDynamic60;
    for (unsigned jobs : {2u, 8u}) {
        const PerfLossStats serial = foldPerfLoss(
            memLosses(workload, traces, fixed, none, 1), true);
        const PerfLossStats parallel = foldPerfLoss(
            memLosses(workload, traces, fixed, none, jobs), true);
        EXPECT_EQ(serial.meanLoss, parallel.meanLoss);
        EXPECT_EQ(serial.maxLoss, parallel.maxLoss);
        EXPECT_EQ(serial.meanInvertRatio,
                  parallel.meanInvertRatio);

        EXPECT_EQ(
            foldNormalizedCpi(
                memLosses(workload, traces, dynamic, dynamic, 1)),
            foldNormalizedCpi(
                memLosses(workload, traces, dynamic, dynamic, jobs)));
    }
}

TEST(JobsDeterminism, PersistentPoolMatchesPerCallPools)
{
    // The persistent worker pool must not change any statistic:
    // serial, per-call-pool parallel, and shared-pool parallel runs
    // of the same experiments are bit-identical.  This covers the
    // sliced BitBiasTracker and the packed-slot scheduler kernels
    // under merge.
    const WorkloadSet workload;
    ThreadPool pool(4);
    ExperimentOptions pooled = tinyOptions(4);
    pooled.pool = &pool;

    const std::vector<RegFileArm> int_arms = {{false, false},
                                              {false, true}};
    const auto rf_serial =
        runRegFileExperiment(workload, int_arms, tinyOptions(1));
    const auto rf_pooled =
        runRegFileExperiment(workload, int_arms, pooled);
    EXPECT_EQ(rf_serial[0].bias, rf_pooled[0].bias);
    EXPECT_EQ(rf_serial[1].bias, rf_pooled[1].bias);
    EXPECT_EQ(rf_serial[1].isvStats.updatesApplied,
              rf_pooled[1].isvStats.updatesApplied);

    const auto sched_serial = runSchedulerExperiment(
        workload, SchedulerArms::Both, tinyOptions(1));
    const auto sched_pooled =
        runSchedulerExperiment(workload, SchedulerArms::Both, pooled);
    EXPECT_EQ(sched_serial.baseline.value().bias,
              sched_pooled.baseline.value().bias);
    EXPECT_EQ(sched_serial.protectedArm.value().bias,
              sched_pooled.protectedArm.value().bias);
    EXPECT_EQ(sched_serial.protectedArm->occupancy,
              sched_pooled.protectedArm->occupancy);

    const std::vector<unsigned> traces = workload.strided(97);
    const PerfLossStats loss_serial = foldPerfLoss(
        memLosses(workload, traces, MechanismKind::LineFixed50,
                  MechanismKind::None, 1),
        true);
    const PerfLossStats loss_pooled = foldPerfLoss(
        memLosses(workload, traces, MechanismKind::LineFixed50,
                  MechanismKind::None, 4, &pool),
        true);
    EXPECT_EQ(loss_serial.meanLoss, loss_pooled.meanLoss);
    EXPECT_EQ(loss_serial.meanInvertRatio,
              loss_pooled.meanInvertRatio);
}

TEST(JobsDeterminism, SchedulerProfile)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 50, 200, 400};
    const auto serial = profileScheduler(
        workload, traces, 1'000, SchedulerConfig(),
        SchedReplayConfig(), 1);
    const auto parallel = profileScheduler(
        workload, traces, 1'000, SchedulerConfig(),
        SchedReplayConfig(), 4);
    ASSERT_EQ(serial.bits.size(), parallel.bits.size());
    for (std::size_t b = 0; b < serial.bits.size(); ++b) {
        EXPECT_EQ(serial.bits[b].occupancy,
                  parallel.bits[b].occupancy);
        EXPECT_EQ(serial.bits[b].bias0Busy,
                  parallel.bits[b].bias0Busy);
    }
    EXPECT_EQ(serial.slotOccupancy, parallel.slotOccupancy);
}

TEST(JobsDeterminism, PipelineSurvey)
{
    const WorkloadSet workload;
    const auto serial =
        runPipelineSurvey(workload, tinyOptions(1));
    const auto parallel =
        runPipelineSurvey(workload, tinyOptions(4));
    EXPECT_EQ(serial.cpi, parallel.cpi);
    EXPECT_EQ(serial.schedOccupancy, parallel.schedOccupancy);
    for (unsigned m = 0; m < 3; ++m)
        EXPECT_EQ(serial.mruHitFraction[m],
                  parallel.mruHitFraction[m]);
}

// -------------------------------------------------------- registry

TEST(Registry, BuiltinCatalogRegistersOnce)
{
    registerBuiltinExperiments();
    registerBuiltinExperiments(); // idempotent
    const auto &experiments =
        ExperimentRegistry::instance().experiments();
    EXPECT_EQ(experiments.size(), 13u);
    EXPECT_NE(ExperimentRegistry::instance().find("fig5"),
              nullptr);
    EXPECT_NE(ExperimentRegistry::instance().find("table4"),
              nullptr);
    EXPECT_NE(ExperimentRegistry::instance().find("attack"),
              nullptr);
    EXPECT_NE(ExperimentRegistry::instance().find("attack-search"),
              nullptr);
    EXPECT_EQ(ExperimentRegistry::instance().find("nope"),
              nullptr);
}

TEST(Registry, DuplicateNameThrows)
{
    registerBuiltinExperiments();
    EXPECT_THROW(ExperimentRegistry::instance().add(
                     {"fig5", "", "", nullptr}),
                 std::logic_error);
}

TEST(Registry, RunsAnExperimentThroughTheContext)
{
    registerBuiltinExperiments();
    const Experiment *fig3 =
        ExperimentRegistry::instance().find("fig3");
    ASSERT_NE(fig3, nullptr);
    const WorkloadSet workload;
    std::ostringstream out;
    fig3->run({workload, tinyOptions(2), out});
    EXPECT_NE(out.str().find("technique decision surface"),
              std::string::npos);
    EXPECT_NE(out.str().find("ALL1"), std::string::npos);
}

} // namespace
} // namespace penelope
