/**
 * @file
 * Tests for the cache model: lookup/replacement semantics, MRU
 * accounting, inversion invariants for every mechanism, the dynamic
 * test machinery and the timing model.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/inversion.hh"
#include "cache/timing.hh"
#include "core/experiments.hh"
#include "core/resultcache.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024; // 16 sets x 4 ways
    cfg.ways = 4;
    cfg.writePortFreeProb = 1.0;
    return cfg;
}

// ----------------------------------------------------------- Basic

TEST(Cache, Geometry)
{
    Cache c(smallCache());
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.numWays(), 4u);
    EXPECT_EQ(c.numLines(), 64u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, 1).hit);
    EXPECT_TRUE(c.access(0x1000, 2).hit);
    EXPECT_TRUE(c.access(0x1020, 3).hit); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, DistinctLinesDistinctEntries)
{
    Cache c(smallCache());
    c.access(0x0, 1);
    c.access(0x40, 2);
    EXPECT_TRUE(c.access(0x0, 3).hit);
    EXPECT_TRUE(c.access(0x40, 4).hit);
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());
    // Fill one set (stride = numSets * lineBytes = 1024).
    for (int i = 0; i < 4; ++i)
        c.access(i * 1024, i + 1);
    // Touch line 0 so line 1 becomes LRU.
    c.access(0, 10);
    // Allocate a 5th line: victim must be line 1.
    c.access(4 * 1024, 11);
    EXPECT_TRUE(c.access(0, 12).hit);
    EXPECT_FALSE(c.access(1 * 1024, 13).hit);
}

TEST(Cache, MruPositionTracking)
{
    Cache c(smallCache());
    c.access(0, 1);
    c.access(1024, 2);
    // Line 0 is now at position 1; hit it.
    const AccessResult r = c.access(0, 3);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(c.hitRecency(r), 1u);
    // Immediately re-hit: now MRU.
    EXPECT_EQ(c.hitRecency(c.access(0, 4)), 0u);
    // A same-cycle re-hit is MRU too.
    EXPECT_EQ(c.hitRecency(c.access(0, 4)), 0u);
    EXPECT_EQ(c.hitRecency(c.access(1024, 5)), 1u);
}

TEST(Cache, MissRate)
{
    Cache c(smallCache());
    c.access(0, 1);
    c.access(0, 2);
    c.access(64, 3);
    c.access(64, 4);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(Cache, TlbConfigGeometry)
{
    const CacheConfig tlb = CacheConfig::tlb(128, 8);
    EXPECT_EQ(tlb.numSets(), 16u);
    EXPECT_EQ(tlb.numLines(), 128u);
    EXPECT_EQ(tlb.lineBytes, 4096u);
    Cache c(tlb);
    EXPECT_FALSE(c.access(0x1234, 1).hit);
    EXPECT_TRUE(c.access(0x1ffc, 2).hit); // same page
    EXPECT_FALSE(c.access(0x2000, 3).hit);
}

// ------------------------------------------------------- Inversion

TEST(Inversion, InvertLineInvariants)
{
    Cache c(smallCache());
    c.access(0, 1);
    EXPECT_TRUE(c.lineValid(0, 0));
    EXPECT_TRUE(c.invertLine(0, 0, 2));
    EXPECT_FALSE(c.lineValid(0, 0));
    EXPECT_TRUE(c.lineInverted(0, 0));
    EXPECT_EQ(c.invertedCount(), 1u);
    // Double inversion is rejected.
    EXPECT_FALSE(c.invertLine(0, 0, 3));
    EXPECT_EQ(c.invertedCount(), 1u);
}

TEST(Inversion, InvertedLineMissesAndIsConsumed)
{
    Cache c(smallCache());
    c.access(0, 1);
    c.invertLine(0, 0, 2);
    const AccessResult miss = c.access(0, 3);
    EXPECT_FALSE(miss.hit);
    EXPECT_TRUE(miss.consumedInvertedLine);
    EXPECT_EQ(c.invertedCount(), 0u);
}

TEST(Inversion, InvertPrefersDeadLines)
{
    Cache c(smallCache());
    c.access(0, 1); // one valid line in set 0
    // Set has 3 plain-invalid ways: inversion must take one of
    // those, keeping the valid line resident.
    EXPECT_TRUE(c.invertLruLineOfSet(0, 2));
    EXPECT_TRUE(c.access(0, 3).hit);
    EXPECT_EQ(c.invertedCount(), 1u);
}

TEST(Inversion, InvertFallsBackToLruValid)
{
    Cache c(smallCache());
    for (int w = 0; w < 4; ++w)
        c.access(w * 1024, w + 1);
    // Set 0 fully valid; LRU is line 0 (oldest).
    EXPECT_TRUE(c.invertLruLineOfSet(0, 10));
    EXPECT_FALSE(c.access(0, 11).hit);
}

TEST(Inversion, LineFixedReachesThreshold)
{
    Cache c(smallCache(), {.kind = MechanismKind::LineFixed50,
                           .invertRatio = 0.5});
    WorkloadSet w;
    TraceGenerator gen = w.generator(5);
    Cycle now = 0;
    for (int i = 0; i < 30000; ++i) {
        ++now;
        c.tick(now);
        const Uop uop = gen.next();
        if (isMemory(uop.cls))
            c.access(uop.addr, now);
    }
    EXPECT_NEAR(c.invertRatio(), 0.5, 0.05);
    EXPECT_EQ(c.invertedCount(), c.mechanism().threshold());
}

TEST(Inversion, SetFixedHalvesCapacity)
{
    Cache c(smallCache(), mechanismParams(MechanismKind::SetFixed50,
                                          smallCache(), false));
    // Inverted ratio should be 0.5 immediately (8 of 16 sets).
    EXPECT_NEAR(c.invertRatio(), 0.5, 0.01);
    // 64 distinct lines exceed the 32-line effective capacity.
    for (int i = 0; i < 64; ++i)
        c.access(i * 64, i + 1);
    unsigned hits = 0;
    for (int i = 0; i < 64; ++i)
        hits += c.access(i * 64, 100 + i).hit;
    EXPECT_LE(hits, 32u);
}

TEST(Inversion, WayFixedHalvesAssociativity)
{
    Cache c(smallCache(), mechanismParams(MechanismKind::WayFixed50,
                                          smallCache(), false));
    EXPECT_NEAR(c.invertRatio(), 0.5, 0.01);
    // 4 lines in one set, only 2 usable ways.
    for (int i = 0; i < 4; ++i)
        c.access(i * 1024, i + 1);
    unsigned hits = 0;
    for (int i = 0; i < 4; ++i)
        hits += c.access(i * 1024, 10 + i).hit;
    EXPECT_LE(hits, 2u);
}

TEST(Inversion, SetRotationMovesWindow)
{
    Cache c(smallCache(), {.kind = MechanismKind::SetFixed50,
                           .invertRatio = 0.5,
                           .periodCycles = 100});
    c.access(0, 1);
    // Force a rotation.
    c.tick(200);
    // The window moved: newly unusable sets are inverted right
    // away, newly usable ones drain as misses consume them, so the
    // ratio sits at or slightly above 50%.
    EXPECT_GE(c.invertRatio(), 0.5);
    EXPECT_LE(c.invertRatio(), 0.60);
}

TEST(Inversion, ShadowMarking)
{
    Cache c(smallCache());
    c.access(0, 1);
    EXPECT_TRUE(c.shadowMarkLruLineOfSet(0));
    EXPECT_EQ(c.shadowCount(), 1u);
    c.clearShadows();
    EXPECT_EQ(c.shadowCount(), 0u);
}

TEST(Inversion, ShadowHitCountsExtraMiss)
{
    // Any extra miss deactivates.
    Cache c(smallCache(), {.kind = MechanismKind::LineDynamic60,
                           .invertRatio = 0.6,
                           .periodCycles = 1000000,
                           .warmupCycles = 10,
                           .testCycles = 100000,
                           .extraMissThreshold = 0.0});
    // Fill the whole cache with valid lines so shadow marks must
    // land on live data, then keep hitting them during the test
    // phase: some hits must be flagged as induced extra misses.
    Cycle now = 1;
    for (int i = 0; i < 64; ++i)
        c.access(i * 64, now++);
    bool shadow_hit = false;
    for (int round = 0; round < 200 && !shadow_hit; ++round) {
        c.tick(now);
        for (int i = 0; i < 64 && !shadow_hit; ++i) {
            shadow_hit =
                c.access(i * 64, now).shadowExtraMiss;
        }
        ++now;
    }
    EXPECT_TRUE(shadow_hit);
}

TEST(Inversion, DynamicDeactivatesForCacheHungryProgram)
{
    // A program hammering every line of the cache should fail the
    // extra-miss test and keep the mechanism off.
    Cache c(smallCache(), {.kind = MechanismKind::LineDynamic60,
                           .invertRatio = 0.6,
                           .periodCycles = 20000,
                           .warmupCycles = 500,
                           .testCycles = 500,
                           .extraMissThreshold = 0.01});
    Cycle now = 0;
    Rng rng(3);
    for (int i = 0; i < 40000; ++i) {
        ++now;
        c.tick(now);
        // Uniform sweep over exactly the cache capacity.
        c.access((i % 64) * 64, now);
    }
    EXPECT_LT(c.averageInvertRatio(now), 0.15);
}

TEST(Inversion, DynamicActivatesForSmallFootprint)
{
    Cache c(smallCache(), {.kind = MechanismKind::LineDynamic60,
                           .invertRatio = 0.6,
                           .periodCycles = 50000,
                           .warmupCycles = 500,
                           .testCycles = 500,
                           .extraMissThreshold = 0.02});
    Cycle now = 0;
    for (int i = 0; i < 40000; ++i) {
        ++now;
        c.tick(now);
        // Footprint of 8 lines: trivially fits half the cache.
        c.access((i % 8) * 64, now);
    }
    EXPECT_GT(c.mechanism().activeFraction(), 0.9);
    EXPECT_GT(c.invertRatio(), 0.4);
}

TEST(Inversion, PaperThresholdTables)
{
    EXPECT_DOUBLE_EQ(dl0ExtraMissThreshold(32 * 1024), 0.02);
    EXPECT_DOUBLE_EQ(dl0ExtraMissThreshold(16 * 1024), 0.03);
    EXPECT_DOUBLE_EQ(dl0ExtraMissThreshold(8 * 1024), 0.04);
    EXPECT_DOUBLE_EQ(dtlbExtraMissThreshold(128), 0.005);
    EXPECT_DOUBLE_EQ(dtlbExtraMissThreshold(64), 0.01);
    EXPECT_DOUBLE_EQ(dtlbExtraMissThreshold(32), 0.02);
}

TEST(Inversion, ProductionParams)
{
    // Every kind on Table 3's DL0 (8-way 32/16/8 KB) and DTLB
    // (128/64/32 entries) geometries, at the catalog's mechanism
    // time scale and at --full's.
    struct Structure
    {
        CacheConfig config;
        bool isTlb;
        double threshold;
    };
    std::vector<Structure> structures;
    for (const auto &[kb, threshold] :
         {std::pair{32u, 0.02}, {16u, 0.03}, {8u, 0.04}}) {
        CacheConfig dl0;
        dl0.sizeBytes = kb * 1024;
        structures.push_back({dl0, false, threshold});
    }
    for (const auto &[entries, threshold] :
         {std::pair{128u, 0.005}, {64u, 0.01}, {32u, 0.02}})
        structures.push_back(
            {CacheConfig::tlb(entries, 8), true, threshold});

    for (const auto &[time_scale, period, phase] :
         {std::tuple{0.05, Cycle(500'000), Cycle(10'000)},
          {0.2, Cycle(2'000'000), Cycle(40'000)}}) {
        for (const Structure &s : structures) {
            SCOPED_TRACE(::testing::Message()
                         << s.config.name << " " << s.config.sizeBytes
                         << " B at time scale " << time_scale);
            const auto params = [&](MechanismKind kind) {
                const MechanismParams p =
                    mechanismParams(kind, s.config, s.isTlb, time_scale);
                EXPECT_EQ(p.kind, kind);
                return std::tuple{p.invertRatio, p.periodCycles,
                                  p.warmupCycles, p.testCycles,
                                  p.extraMissThreshold};
            };
            using Pin = std::tuple<double, Cycle, Cycle, Cycle, double>;
            EXPECT_EQ(params(MechanismKind::None), Pin(0.0, 0, 0, 0, 0.0));
            EXPECT_EQ(params(MechanismKind::SetFixed50),
                      Pin(0.5, period, 0, 0, 0.0));
            EXPECT_EQ(params(MechanismKind::WayFixed50),
                      Pin(0.5, period, 0, 0, 0.0));
            EXPECT_EQ(params(MechanismKind::LineFixed50),
                      Pin(0.5, 0, 0, 0, 0.0));
            EXPECT_EQ(params(MechanismKind::LineDynamic60),
                      Pin(0.6, period, phase, phase, s.threshold));
        }
    }
}

// ---------------------------------------------------------- Timing

TEST(Timing, BaselineCyclesScaleWithUops)
{
    WorkloadSet w;
    TraceGenerator gen = w.generator(0);
    MemTimingSim sim(CacheConfig(), CacheConfig::tlb(128, 8),
                     MemTimingParams(), MechanismKind::None,
                     MechanismKind::None);
    const MemSimResult r = sim.run(gen, 10000);
    EXPECT_EQ(r.uops, 10000u);
    EXPECT_GT(r.cycles, 10000 * 0.6);
    EXPECT_GT(r.memOps, 1000u);
    EXPECT_EQ(r.dl0Hits + r.dl0Misses, r.memOps);
}

TEST(Timing, MissesCostCycles)
{
    WorkloadSet w;
    MemTimingParams cheap;
    cheap.dl0MissPenalty = 0;
    cheap.dtlbMissPenalty = 0;
    MemTimingParams costly;

    TraceGenerator g1 = w.generator(8);
    MemTimingSim s1(CacheConfig(), CacheConfig::tlb(128, 8), cheap,
                    MechanismKind::None, MechanismKind::None);
    TraceGenerator g2 = w.generator(8);
    MemTimingSim s2(CacheConfig(), CacheConfig::tlb(128, 8), costly,
                    MechanismKind::None, MechanismKind::None);
    const double c1 = s1.run(g1, 10000).cycles;
    const double c2 = s2.run(g2, 10000).cycles;
    EXPECT_GT(c2, c1);
}

TEST(Timing, MechanismNamesExhaustive)
{
    EXPECT_STREQ(mechanismName(MechanismKind::None), "Baseline");
    EXPECT_STREQ(mechanismName(MechanismKind::SetFixed50),
                 "SetFixed50%");
    EXPECT_STREQ(mechanismName(MechanismKind::WayFixed50),
                 "WayFixed50%");
    EXPECT_STREQ(mechanismName(MechanismKind::LineFixed50),
                 "LineFixed50%");
    EXPECT_STREQ(mechanismName(MechanismKind::LineDynamic60),
                 "LineDynamic60%");
}

TEST(Timing, PerfLossNonNegativeOnAverage)
{
    WorkloadSet w;
    const auto traces = w.strided(120);
    const MemLossQuery query{CacheConfig(), CacheConfig::tlb(128, 8),
                             MechanismKind::LineFixed50,
                             MechanismKind::None};
    const PerfLossStats stats = foldPerfLoss(
        simulateMemLosses(w, traces, 15000, {query}).front(), true);
    EXPECT_GT(stats.traces, 0u);
    EXPECT_GE(stats.meanLoss, 0.0);
    EXPECT_GT(stats.meanInvertRatio, 0.3);
}

TEST(Timing, DynamicLosesLessThanFixed)
{
    // The headline Table-3 ordering.
    WorkloadSet w;
    const auto traces = w.strided(60);
    const std::vector<MemLossQuery> queries = {
        {CacheConfig(), CacheConfig::tlb(128, 8),
         MechanismKind::LineFixed50, MechanismKind::None},
        {CacheConfig(), CacheConfig::tlb(128, 8),
         MechanismKind::LineDynamic60, MechanismKind::None},
    };
    const auto samples = simulateMemLosses(w, traces, 20000, queries);
    const PerfLossStats fixed = foldPerfLoss(samples[0], true);
    const PerfLossStats dynamic = foldPerfLoss(samples[1], true);
    EXPECT_LT(dynamic.meanLoss, fixed.meanLoss);
}


// ------------------------------------------------- batched timing

/** Two fresh single-query runs: what one batched sample must equal. */
MemLossSample
referenceSample(const WorkloadSet &workload, unsigned index,
                std::size_t uops, const MemLossQuery &query,
                double time_scale)
{
    TraceGenerator base_gen = workload.generator(index);
    MemTimingSim base(query.dl0, query.dtlb, MemTimingParams(),
                      MechanismKind::None, MechanismKind::None,
                      time_scale);
    const MemSimResult rb = base.run(base_gen, uops);
    TraceGenerator mech_gen = workload.generator(index);
    MemTimingSim mech(query.dl0, query.dtlb, MemTimingParams(),
                      query.dl0Mechanism, query.dtlbMechanism,
                      time_scale);
    const MemSimResult rm = mech.run(mech_gen, uops);
    MemLossSample r;
    r.loss = rm.cycles / rb.cycles - 1.0;
    r.normalizedCycles = rm.cycles / rb.cycles;
    r.dl0InvertRatio = rm.dl0AvgInvertRatio;
    r.dtlbInvertRatio = rm.dtlbAvgInvertRatio;
    return r;
}

void
expectSamplesEqual(const MemLossSample &got, const MemLossSample &want)
{
    EXPECT_EQ(got.loss, want.loss);
    EXPECT_EQ(got.normalizedCycles, want.normalizedCycles);
    EXPECT_EQ(got.dl0InvertRatio, want.dl0InvertRatio);
    EXPECT_EQ(got.dtlbInvertRatio, want.dtlbInvertRatio);
}

TEST(Timing, BatchedPassMatchesFreshRuns)
{
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 97, 311};
    const double time_scale = 0.005; // dynamic decisions fire early
    CacheConfig dl0_small;
    dl0_small.sizeBytes = 16 * 1024;
    dl0_small.ways = 4;
    const CacheConfig dtlb = CacheConfig::tlb(128, 8);
    const std::vector<MemLossQuery> queries = {
        // 0 and 1 share a baseline geometry; 2 duplicates 0.
        {CacheConfig(), dtlb, MechanismKind::LineFixed50,
         MechanismKind::None},
        {CacheConfig(), dtlb, MechanismKind::SetFixed50,
         MechanismKind::None},
        {CacheConfig(), dtlb, MechanismKind::LineFixed50,
         MechanismKind::None},
        // DTLB-applied, then both-applied on another geometry.
        {CacheConfig(), CacheConfig::tlb(64, 8), MechanismKind::None,
         MechanismKind::LineDynamic60},
        {dl0_small, CacheConfig::tlb(32, 8),
         MechanismKind::LineDynamic60, MechanismKind::LineFixed50},
    };

    // 1 uop, a partial last chunk, and an exact multiple of it.
    for (const std::size_t uops : {std::size_t{1}, std::size_t{2500},
                                   std::size_t{4096}}) {
        std::vector<std::vector<MemLossSample>> want(queries.size());
        for (std::size_t q = 0; q < queries.size(); ++q)
            for (const unsigned index : traces)
                want[q].push_back(referenceSample(
                    workload, index, uops, queries[q], time_scale));
        if (uops == 4096) {
            // The both-applied query really inverts on both sides.
            EXPECT_GT(want[4][0].dl0InvertRatio, 0.0);
            EXPECT_GT(want[4][0].dtlbInvertRatio, 0.0);
        }

        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE("uops " + std::to_string(uops) + " jobs " +
                         std::to_string(jobs));
            const auto got =
                simulateMemLosses(workload, traces, uops, queries,
                                  MemTimingParams(), time_scale, jobs);
            ASSERT_EQ(got.size(), queries.size());
            for (std::size_t q = 0; q < queries.size(); ++q) {
                ASSERT_EQ(got[q].size(), traces.size());
                for (std::size_t t = 0; t < traces.size(); ++t)
                    expectSamplesEqual(got[q][t], want[q][t]);
            }

            // Half-filled cache: queries 1 and 3 priced one at a time
            // first; the batched call then stores only the two keys
            // per trace still missing (0 and 4; 2 aliases 0).
            ResultCache cache;
            for (const std::size_t q : {1, 3}) {
                simulateMemLosses(workload, traces, uops, {queries[q]},
                                  MemTimingParams(), time_scale, jobs,
                                  nullptr, &cache);
            }
            const auto before = cache.stats();
            EXPECT_EQ(before.stores, 2 * traces.size());
            const auto warm = simulateMemLosses(
                workload, traces, uops, queries, MemTimingParams(),
                time_scale, jobs, nullptr, &cache);
            // One lookup per distinct query and trace.
            EXPECT_EQ(cache.stats().hits - before.hits, 2 * traces.size());
            EXPECT_EQ(cache.stats().misses - before.misses,
                      2 * traces.size());
            EXPECT_EQ(cache.stats().stores - before.stores,
                      2 * traces.size());
            for (std::size_t q = 0; q < queries.size(); ++q)
                for (std::size_t t = 0; t < traces.size(); ++t)
                    expectSamplesEqual(warm[q][t], want[q][t]);

            // Now fully warm: nothing left to store.
            const std::uint64_t full = cache.stats().stores;
            simulateMemLosses(workload, traces, uops, queries,
                              MemTimingParams(), time_scale, jobs,
                              nullptr, &cache);
            EXPECT_EQ(cache.stats().stores, full);
        }
    }
}

/** Table 3's 29 queries in runTable3Experiment's order, then Table
 *  4's two combined ones (buildProcessorSummary). */
std::vector<MemLossQuery>
catalogMemLossQueries()
{
    const CacheConfig dl0;
    const CacheConfig dtlb = CacheConfig::tlb(128, 8);
    const MechanismKind grid[] = {MechanismKind::SetFixed50,
                                  MechanismKind::LineFixed50,
                                  MechanismKind::LineDynamic60};
    std::vector<MemLossQuery> queries;
    for (const unsigned ways : {8u, 4u}) {
        for (const unsigned kb : {32u, 16u, 8u}) {
            CacheConfig row;
            row.sizeBytes = kb * 1024;
            row.ways = ways;
            for (const MechanismKind m : grid)
                queries.push_back({row, dtlb, m, MechanismKind::None});
        }
    }
    for (const unsigned entries : {128u, 64u, 32u})
        for (const MechanismKind m : grid)
            queries.push_back({dl0, CacheConfig::tlb(entries, 8),
                               MechanismKind::None, m});
    queries.push_back({dl0, dtlb, MechanismKind::WayFixed50,
                       MechanismKind::None});
    queries.push_back({dl0, dtlb, MechanismKind::LineFixed50,
                       MechanismKind::LineFixed50});
    queries.push_back({dl0, dtlb, MechanismKind::LineDynamic60,
                       MechanismKind::LineDynamic60});
    return queries;
}

TEST(Timing, SharedMissStreamsMatchFreshRunsOnCatalogQueries)
{
    // The shared miss streams reproduce fresh per-query sim pairs bit
    // for bit on the lists the catalog runs.  The second list starts
    // on a non-default pair, so the DL0 4-way 8 KB and DTLB 32-entry
    // streams are stamped on that pair's timeline, and the catalog
    // baselines of both geometries read two streams stamped by
    // different timelines.
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 132, 244};
    const std::size_t uops = 10'000;
    const std::vector<MemLossQuery> catalog = catalogMemLossQueries();
    std::vector<MemLossQuery> reordered = catalog;
    CacheConfig dl0_4w8k;
    dl0_4w8k.sizeBytes = 8 * 1024;
    dl0_4w8k.ways = 4;
    reordered.insert(reordered.begin(),
                     {dl0_4w8k, CacheConfig::tlb(32, 8),
                      MechanismKind::LineDynamic60,
                      MechanismKind::None});

    for (const double time_scale : {0.05, 0.005}) {
        std::vector<std::vector<MemLossSample>> want(reordered.size());
        for (std::size_t q = 0; q < reordered.size(); ++q)
            for (const unsigned index : traces)
                want[q].push_back(referenceSample(
                    workload, index, uops, reordered[q], time_scale));
        for (const unsigned jobs : {1u, 4u}) {
            for (const bool first_non_default : {false, true}) {
                SCOPED_TRACE("time scale " + std::to_string(time_scale) +
                             " jobs " + std::to_string(jobs) +
                             (first_non_default ? " reordered"
                                                : " catalog"));
                const std::size_t skip = first_non_default ? 0 : 1;
                const auto got = simulateMemLosses(
                    workload, traces, uops,
                    first_non_default ? reordered : catalog,
                    MemTimingParams(), time_scale, jobs);
                ASSERT_EQ(got.size(), reordered.size() - skip);
                for (std::size_t q = 0; q < got.size(); ++q)
                    for (std::size_t t = 0; t < traces.size(); ++t) {
                        SCOPED_TRACE("query " + std::to_string(q) +
                                     " trace " +
                                     std::to_string(traces[t]));
                        expectSamplesEqual(got[q][t],
                                           want[q + skip][t]);
                    }
            }
        }
    }
}

// ------------------------------------ paths Table 3 never reaches
//
// Table 3 runs power-of-two set windows and full way windows only.
// These anchors pin literal results for the other lookup and victim
// paths, so a rewrite of the access path cannot drift them unseen.

/** What one anchor stream pins. */
struct CacheAnchor
{
    std::uint64_t hits;
    std::uint64_t misses;
    std::vector<std::uint64_t> mruHits; ///< per recency position
    unsigned inverted;
    double avgInvertRatio;
    std::uint64_t shadowExtraMisses;
    std::uint64_t consumedInverted;
};

/**
 * Drive @p cache with a seeded stream of @p accesses: 1-3 ticked
 * cycles apart, three quarters of them to the hot quarter of a
 * @p footprint_lines footprint; then compare every pinned statistic
 * with @p want.
 */
void
expectAnchorStream(Cache &cache, std::uint64_t seed, int accesses,
                   std::uint64_t footprint_lines,
                   const CacheAnchor &want)
{
    Rng rng(seed);
    Cycle now = 0;
    std::uint64_t shadow_extra = 0;
    std::uint64_t consumed = 0;
    CategoryCounter mru(cache.numWays());
    for (int i = 0; i < accesses; ++i) {
        for (Cycle step = 1 + rng.nextInt(3); step > 0; --step)
            cache.tick(++now);
        const std::uint64_t span = rng.nextBool(0.75)
            ? footprint_lines / 4 : footprint_lines;
        const Addr addr = rng.nextInt(span) * cache.config().lineBytes +
            rng.nextInt(8) * 8;
        rng();
        rng(); // the stream's former write flag and data word
        const AccessResult r = cache.access(addr, now);
        if (r.hit)
            mru.add(cache.hitRecency(r));
        shadow_extra += r.shadowExtraMiss;
        consumed += r.consumedInvertedLine;
    }
    EXPECT_EQ(cache.hits(), want.hits);
    EXPECT_EQ(cache.misses(), want.misses);
    ASSERT_EQ(mru.categories(), want.mruHits.size());
    for (std::size_t i = 0; i < want.mruHits.size(); ++i)
        EXPECT_EQ(mru.count(i), want.mruHits[i]) << "position " << i;
    EXPECT_EQ(cache.invertedCount(), want.inverted);
    EXPECT_EQ(cache.averageInvertRatio(now), want.avgInvertRatio);
    EXPECT_EQ(shadow_extra, want.shadowExtraMisses);
    EXPECT_EQ(consumed, want.consumedInverted);
}

TEST(CacheAnchor, SetFixedNonPowerOfTwoWindow)
{
    // 16 sets, a quarter inverted: 12 usable sets (the modulo
    // fallback), rotating every 5000 cycles so the window wraps
    // past the last set.
    Cache c(smallCache(), {.kind = MechanismKind::SetFixed50,
                           .invertRatio = 0.25,
                           .periodCycles = 5000});
    EXPECT_EQ(c.invertedCount(), 16u);
    expectAnchorStream(c, 0x5e7f, 20000, 128,
                       {15274, 4726, {4946, 4545, 3629, 2154}, 17,
                        0.25156417478874293, 0, 31});
}

TEST(CacheAnchor, WayFixedWindowWraps)
{
    // 8 ways, 2 inverted: the 6-way window rotates every 3000
    // cycles, so the usable ways wrap past way 7.
    CacheConfig cfg = smallCache();
    cfg.sizeBytes = 8 * 1024;
    cfg.ways = 8;
    Cache c(cfg, {.kind = MechanismKind::WayFixed50,
                  .invertRatio = 0.25,
                  .periodCycles = 3000});
    EXPECT_EQ(c.invertedCount(), 32u);
    expectAnchorStream(c, 0x3a7f, 20000, 192,
                       {17126, 2874,
                        {4422, 4204, 3726, 2493, 1425, 856, 0, 0}, 32,
                        0.25575803083992787, 0, 208});
}

TEST(CacheAnchor, LineDynamicShadowMarking)
{
    // Short warmup/test/decide periods: the test phase shadow-marks
    // lines and counts the hits on them as induced extra misses.
    Cache c(smallCache(), {.kind = MechanismKind::LineDynamic60,
                           .invertRatio = 0.6,
                           .periodCycles = 6000,
                           .warmupCycles = 1000,
                           .testCycles = 2000,
                           .extraMissThreshold = 0.2});
    expectAnchorStream(c, 0xd1a, 20000, 48,
                       {19661, 339, {14657, 3357, 1647, 0}, 16,
                        0.25840159966520088, 3234, 291});
    // One of the seven decisions found the extra-miss rate low
    // enough to invert.
    EXPECT_EQ(c.mechanism().activeFraction(), 1.0 / 7.0);
}

// ------------------------------------------- absolute Table 3 anchor

struct Table3Pin
{
    double loss[3];
    double invertRatio[3];
};

void
expectTable3Pinned(const Table3Result &result, const Table3Pin (&rows)[9],
                   double way_fixed_loss, double combined_cpi)
{
    ASSERT_EQ(result.rows.size(), 9u);
    for (unsigned r = 0; r < 9; ++r) {
        for (unsigned m = 0; m < 3; ++m) {
            EXPECT_EQ(result.rows[r].loss[m], rows[r].loss[m])
                << result.rows[r].label << " mechanism " << m;
            EXPECT_EQ(result.rows[r].invertRatio[m],
                      rows[r].invertRatio[m])
                << result.rows[r].label << " mechanism " << m;
        }
    }
    EXPECT_EQ(result.wayFixedLoss, way_fixed_loss);
    EXPECT_EQ(result.combinedCpi, combined_cpi);
}

TEST(Table3Anchor, GridAblationAndCombinedCpiPinned)
{
    // Absolute values of every Table-3 cell at a small scale, so a
    // change to trace generation, chunking, baseline sharing or the
    // folds that moves any cycle count moves one of these doubles.
    // At the default time scale the dynamic mechanism never leaves
    // its warmup within 3000 uops, hence its zeros.
    const WorkloadSet workload;
    ExperimentOptions options;
    options.traceStride = 64;
    options.cacheUops = 3000;
    const Table3Pin pinned[9] = {
        {{0.00027728533690337304, 0.007429938471541447, 0},
         {0.5, 0.4601192908698673, 0}},
        {{0.013270787483124156, 0.02536728343736051, 0},
         {0.5, 0.47492202603395917, 0}},
        {{0.052172075176177973, 0.035551055161444682, 0},
         {0.5, 0.48204544630299706, 0}},
        {{0, 0.019856372328307788, 0}, {0.5, 0.45880424896042477, 0}},
        {{0.010411387099853899, 0.031444073368859432, 0},
         {0.5, 0.47574639833800664, 0}},
        {{0.044680306286980449, 0.059607086027042754, 0},
         {0.5, 0.48277339237149947, 0}},
        {{0.004546558313138228, 0.010150235646587482, 0},
         {0.5, 0.48449482947377726, 0}},
        {{0.0077259306645817523, 0.022229856026605453, 0},
         {0.5, 0.48578415790343432, 0}},
        {{0.023363134301968978, 0.04269949199739001, 0},
         {0.5, 0.48208938689998032, 0}},
    };
    expectTable3Pinned(runTable3Experiment(workload, options), pinned,
                       0.00045534801496605048, 1.017580174118129);
}

TEST(Table3Anchor, DynamicMechanismPinned)
{
    // Same grid with time constants short enough for LineDynamic60%
    // to run its warmup/test/decide cycle inside 3000 uops.
    const WorkloadSet workload;
    ExperimentOptions options;
    options.traceStride = 64;
    options.cacheUops = 3000;
    options.mechanismTimeScale = 0.002;
    const Table3Pin pinned[9] = {
        {{0.00027728533690337304, 0.007429938471541447,
          0.02975356438627403},
         {0.5, 0.4601192908698673, 0.46616767423416017}},
        {{0.013270787483124156, 0.02536728343736051,
          0.039177646969883934},
         {0.5, 0.47492202603395917, 0.43596330730499605}},
        {{0.052172075176177973, 0.035551055161444682,
          0.068749872910422685},
         {0.5, 0.48204544630299706, 0.50033660865702911}},
        {{0, 0.019856372328307788, 0.026907785593093606},
         {0.5, 0.45880424896042477, 0.46495135439528906}},
        {{0.010411387099853899, 0.031444073368859432,
          0.055170126664577289},
         {0.5, 0.47574639833800664, 0.49011844541564847}},
        {{0.044680306286980449, 0.059607086027042754,
          0.079251543732490062},
         {0.5, 0.48277339237149947, 0.45374754349109248}},
        {{0.004546558313138228, 0.010150235646587482,
          0.020626623114417826},
         {0.5, 0.48449482947377726, 0.49684852477394831}},
        {{0.0077259306645817523, 0.022229856026605453,
          0.04450109076799226},
         {0.5, 0.48578415790343432, 0.43738358187225823}},
        {{0.023363134301968978, 0.04269949199739001,
          0.037943286285848837},
         {0.5, 0.48208938689998032, 0.27014078882223203}},
    };
    expectTable3Pinned(runTable3Experiment(workload, options), pinned,
                       0.00045534801496605048, 1.017580174118129);
}

/** Parameterised geometry sweep: core invariants must hold for
 *  every (size, ways, access stream, mechanism) combination.  The
 *  streams: 0 uniform over four times the capacity, 1 three
 *  quarters of the accesses to a hot quarter of that footprint,
 *  2 a sequential line sweep over twice the capacity (LRU's
 *  worst case: every access misses once the cache is full). */
class CacheGeometry
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, int, int>>
{};

TEST_P(CacheGeometry, InvariantsHold)
{
    CacheConfig cfg;
    cfg.sizeBytes = std::get<0>(GetParam()) * 1024;
    cfg.ways = std::get<1>(GetParam());
    const int stream = std::get<2>(GetParam());
    const auto mech =
        static_cast<MechanismKind>(std::get<3>(GetParam()));
    Cache c(cfg, mechanismParams(mech, cfg, false, 0.01));

    Rng rng(cfg.sizeBytes + cfg.ways);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        ++now;
        c.tick(now);
        const std::uint64_t footprint = 4 * cfg.sizeBytes / 64;
        Addr addr = rng.nextInt(footprint) * 64;
        if (stream == 1 && rng.nextBool(0.75))
            addr = rng.nextInt(footprint / 4) * 64;
        else if (stream == 2)
            addr = (i % (footprint / 2)) * 64;
        rng();
        rng(); // the stream's former write flag and data word
        c.access(addr, now);

        // Invariants checked continuously:
        ASSERT_LE(c.invertedCount(), c.numLines());
        ASSERT_GE(c.invertRatio(), 0.0);
        ASSERT_LE(c.invertRatio(), 1.0);
    }
    // Accounting identities.
    EXPECT_EQ(c.hits() + c.misses(), 20000u);
    // An inverted line is never valid; recount from scratch.
    unsigned inverted = 0;
    for (unsigned s = 0; s < c.numSets(); ++s) {
        for (unsigned w = 0; w < c.numWays(); ++w) {
            if (c.lineInverted(s, w)) {
                ++inverted;
                EXPECT_FALSE(c.lineValid(s, w));
            }
        }
    }
    EXPECT_EQ(inverted, c.invertedCount());
    const double avg = c.averageInvertRatio(now);
    EXPECT_GE(avg, 0.0);
    EXPECT_LE(avg, 1.0);
    // Hitting the cache again must still work after all churn.
    const Addr probe = 0x40;
    c.access(probe, ++now);
    EXPECT_TRUE(c.access(probe, ++now).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Combine(
        ::testing::Values(4u, 8u, 32u),     // KB
        ::testing::Values(2u, 4u, 8u),      // ways
        ::testing::Values(0, 1, 2),         // access stream
        ::testing::Values(0, 1, 2, 3, 4))); // mechanisms

} // namespace
} // namespace penelope

