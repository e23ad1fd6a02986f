/**
 * @file
 * Integration tests for the out-of-order pipeline model and the
 * experiment runners built on it.
 */

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "pipeline/pipeline.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

TEST(Pipeline, RunsToCompletion)
{
    WorkloadSet w;
    Pipeline pipe{PipelineConfig()};
    TraceGenerator gen = w.generator(0);
    const PipelineStats s = pipe.run(gen, 10000);
    EXPECT_EQ(s.uops, 10000u);
    EXPECT_GT(s.cycles, 2000u);
    EXPECT_GT(s.cpi, 0.3);
    EXPECT_LT(s.cpi, 6.0);
}

TEST(Pipeline, StatsInPhysicalRange)
{
    WorkloadSet w;
    Pipeline pipe{PipelineConfig()};
    TraceGenerator gen = w.generator(20);
    const PipelineStats s = pipe.run(gen, 15000);
    for (double u : s.adderUtilization) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
    EXPECT_GT(s.intRfOccupancy, 0.1);
    EXPECT_LT(s.intRfOccupancy, 1.0);
    EXPECT_GT(s.schedOccupancy, 0.0);
    EXPECT_LE(s.schedOccupancy, 1.0);
    EXPECT_GT(s.intRfPortFree, 0.5);
    EXPECT_GT(s.dl0Hits + s.dl0Misses, 1000u);
    EXPECT_NEAR(s.mruHitFraction[0] + s.mruHitFraction[1] +
                    s.mruHitFraction[2],
                1.0, 1e-6);
}

/** Run one pipeline and pin its DL0 hit-recency histogram and the
 *  survey fractions (sec11's DL0 MRU rows) as literals. */
void
expectDl0MruPinned(const PipelineConfig &config, unsigned trace,
                   const std::vector<std::uint64_t> &want_counts,
                   const double (&want_fraction)[3])
{
    WorkloadSet w;
    Pipeline pipe(config);
    TraceGenerator gen = w.generator(trace);
    const PipelineStats s = pipe.run(gen, 10000);
    const CategoryCounter &mru = pipe.dl0MruHits();
    ASSERT_EQ(mru.categories(), want_counts.size());
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < want_counts.size(); ++i) {
        EXPECT_EQ(mru.count(i), want_counts[i]) << "position " << i;
        hits += mru.count(i);
    }
    EXPECT_EQ(hits, s.dl0Hits);
    for (unsigned m = 0; m < 3; ++m)
        EXPECT_EQ(s.mruHitFraction[m], want_fraction[m]) << m;
}

TEST(PipelineAnchor, Dl0MruPositionsPinned)
{
    // The survey's configuration (no cache inversion).
    expectDl0MruPinned(PipelineConfig(), 3,
                       {3268, 154, 39, 21, 5, 3, 0, 0},
                       {0.93638968481375362, 0.044126074498567334,
                        0.019484240687679084});
}

TEST(PipelineAnchor, Dl0MruPositionsWithInvertedLinesPinned)
{
    // LineFixed50% keeps half of every set inverted: inverted ways
    // never count towards a hit's recency position.
    PipelineConfig cfg;
    cfg.dl0Mechanism = MechanismKind::LineFixed50;
    expectDl0MruPinned(cfg, 11, {3301, 136, 37, 5, 9, 0, 1, 0},
                       {0.9461163657208369, 0.038979650329607339,
                        0.014903983949555746});
}

/** Run trace 7 for 10,000 uops under @p policy and pin every
 *  PipelineStats field as a literal. */
void
expectStatsPinned(AdderAllocationPolicy policy, const PipelineStats &want)
{
    WorkloadSet w;
    PipelineConfig cfg;
    cfg.adderPolicy = policy;
    Pipeline pipe(cfg);
    TraceGenerator gen = w.generator(7);
    const PipelineStats s = pipe.run(gen, 10000);
    EXPECT_EQ(s.cycles, want.cycles);
    EXPECT_EQ(s.uops, want.uops);
    EXPECT_EQ(s.cpi, want.cpi);
    for (unsigned a = 0; a < 4; ++a)
        EXPECT_EQ(s.adderUtilization[a], want.adderUtilization[a]) << a;
    EXPECT_EQ(s.intRfOccupancy, want.intRfOccupancy);
    EXPECT_EQ(s.fpRfOccupancy, want.fpRfOccupancy);
    EXPECT_EQ(s.schedOccupancy, want.schedOccupancy);
    EXPECT_EQ(s.intRfPortFree, want.intRfPortFree);
    EXPECT_EQ(s.fpRfPortFree, want.fpRfPortFree);
    EXPECT_EQ(s.schedPortFree, want.schedPortFree);
    EXPECT_EQ(s.dl0Hits, want.dl0Hits);
    EXPECT_EQ(s.dl0Misses, want.dl0Misses);
    EXPECT_EQ(s.dtlbMisses, want.dtlbMisses);
    for (unsigned m = 0; m < 3; ++m)
        EXPECT_EQ(s.mruHitFraction[m], want.mruHitFraction[m]) << m;
}

TEST(PipelineAnchor, StatsPinned)
{
    PipelineStats priority;
    priority.cycles = 8728;
    priority.uops = 10000;
    priority.cpi = 0.87280000000000002;
    priority.adderUtilization[0] = 0.36663611365719523;
    priority.adderUtilization[1] = 0.1094179651695692;
    priority.adderUtilization[2] = 0.29605866177818513;
    priority.adderUtilization[3] = 0.13691567369385885;
    priority.intRfOccupancy = 0.50771761858386799;
    priority.fpRfOccupancy = 0.17793487912465628;
    priority.schedOccupancy = 0.96407395737855184;
    priority.intRfPortFree = 0.83008052408898592;
    priority.fpRfPortFree = 0.79681274900398402;
    priority.schedPortFree = 1.0;
    priority.dl0Hits = 3463;
    priority.dl0Misses = 316;
    priority.dtlbMisses = 70;
    priority.mruHitFraction[0] = 0.93271729714120699;
    priority.mruHitFraction[1] = 0.053421888535951485;
    priority.mruHitFraction[2] = 0.013860814322841466;
    expectStatsPinned(AdderAllocationPolicy::Priority, priority);

    PipelineStats uniform = priority;
    uniform.cycles = 9016;
    uniform.cpi = 0.90159999999999996;
    uniform.adderUtilization[0] = 0.23047914818101153;
    uniform.adderUtilization[1] = 0.23036823425022182;
    uniform.adderUtilization[2] = 0.28660159716060335;
    uniform.adderUtilization[3] = 0.13254214729370009;
    uniform.intRfOccupancy = 0.50488801159050578;
    uniform.fpRfOccupancy = 0.17767718500443655;
    uniform.schedOccupancy = 0.96855936668145515;
    uniform.intRfPortFree = 0.84222737819025517;
    uniform.fpRfPortFree = 0.81872509960159368;
    expectStatsPinned(AdderAllocationPolicy::Uniform, uniform);
}

TEST(Pipeline, PriorityPolicySkewsAdders)
{
    WorkloadSet w;
    PipelineConfig pri;
    pri.adderPolicy = AdderAllocationPolicy::Priority;
    Pipeline p1(pri);
    TraceGenerator g1 = w.generator(0);
    const PipelineStats s1 = p1.run(g1, 20000);

    PipelineConfig uni;
    uni.adderPolicy = AdderAllocationPolicy::Uniform;
    Pipeline p2(uni);
    TraceGenerator g2 = w.generator(0);
    const PipelineStats s2 = p2.run(g2, 20000);

    // Priority: port 0 does far more IntAlu work than port 1.
    EXPECT_GT(s1.adderUtilization[0],
              2.0 * s1.adderUtilization[1]);
    // Uniform: the two integer adders are balanced.
    EXPECT_NEAR(s2.adderUtilization[0], s2.adderUtilization[1],
                0.03);
}

TEST(Pipeline, CacheMechanismCostsCycles)
{
    WorkloadSet w;
    // A Server-suite trace with a large working set.
    const auto server = w.indicesForSuite(SuiteId::Server);
    PipelineConfig base;
    Pipeline p1(base);
    TraceGenerator g1 = w.generator(server[1]);
    const PipelineStats s1 = p1.run(g1, 20000);

    PipelineConfig mech = base;
    mech.dl0Mechanism = MechanismKind::SetFixed50;
    Pipeline p2(mech);
    TraceGenerator g2 = w.generator(server[1]);
    const PipelineStats s2 = p2.run(g2, 20000);

    EXPECT_GE(s2.dl0Misses, s1.dl0Misses);
    EXPECT_GE(s2.cycles, s1.cycles * 0.99);
}

// --------------------------------------------------- Experiments

TEST(Experiments, AdderEndToEnd)
{
    WorkloadSet w;
    ExperimentOptions opt;
    opt.traceStride = 96;
    opt.uopsPerTrace = 8000;
    opt.adderOperandSamples = 600;
    const auto r = runAdderExperiment(w, opt);
    EXPECT_EQ(r.pairSweep.size(), 28u);
    EXPECT_GT(r.baselineGuardband, 0.12);
    ASSERT_EQ(r.scenarios.size(), 3u);
    // Figure-5 ordering: 30% > 21% > 11% utilisation guardbands.
    EXPECT_GT(r.scenarios[0].guardband, r.scenarios[1].guardband);
    EXPECT_GT(r.scenarios[1].guardband, r.scenarios[2].guardband);
    EXPECT_LT(r.scenarios[0].guardband, r.baselineGuardband);
    EXPECT_GT(r.efficiency, 1.0);
    EXPECT_LT(r.efficiency, nbtiEfficiency(1.0, 0.20, 1.0));
}

TEST(Experiments, RegFileEndToEnd)
{
    WorkloadSet w;
    ExperimentOptions opt;
    opt.traceStride = 64;
    opt.uopsPerTrace = 15000;
    const auto r =
        runRegFileExperiment(w, {{false, false}, {false, true}}, opt);
    ASSERT_EQ(r.size(), 2u);
    const RegFileArmResult &base = r[0];
    const RegFileArmResult &isv = r[1];
    EXPECT_EQ(base.bias.size(), 32u);
    EXPECT_EQ(isv.bias.size(), 32u);
    EXPECT_GT(base.worst, 0.75);
    EXPECT_LT(isv.worst, 0.60);
    EXPECT_LT(isv.guardband, base.guardband);
    EXPECT_NEAR(base.freeFraction, 0.54, 0.12);
}

TEST(Experiments, SchedulerEndToEnd)
{
    WorkloadSet w;
    ExperimentOptions opt;
    opt.traceStride = 96;
    opt.uopsPerTrace = 10000;
    const auto r = runSchedulerExperiment(w, SchedulerArms::Both, opt);
    const SchedulerArmResult &base = r.baseline.value();
    const SchedulerProtectedResult &prot = r.protectedArm.value();
    EXPECT_EQ(base.bias.size(), fieldLayout().totalBits());
    EXPECT_GT(base.worstFig8, 0.9);
    // Paper: 63.2% residual (ALL1 bits + valid bit).
    EXPECT_NEAR(prot.worstFig8, 0.632, 0.06);
    EXPECT_NEAR(prot.occupancy, 0.63, 0.08);
    EXPECT_LT(prot.guardband, 0.09);
}

TEST(Experiments, ProcessorSummaryOrdering)
{
    WorkloadSet w;
    ExperimentOptions opt;
    opt.traceStride = 96;
    opt.uopsPerTrace = 8000;
    opt.cacheUops = 15000;
    opt.adderOperandSamples = 600;
    const auto adder = runAdderExperiment(w, opt);
    const auto files =
        runRegFileExperiment(w, {{false, true}, {true, true}}, opt);
    const auto sched =
        runSchedulerExperiment(w, SchedulerArms::Protected, opt);
    const auto summary = buildProcessorSummary(
        adder, files[0], files[1], sched.protectedArm.value(), w, opt);

    EXPECT_EQ(summary.blocks.size(), 5u);
    EXPECT_NEAR(summary.baselineEfficiency, 1.728, 1e-3);
    EXPECT_NEAR(summary.invertEfficiency, 1.413, 1e-3);
    // Penelope beats paying the full guardband.
    EXPECT_LT(summary.penelopeEfficiencyDynamic,
              summary.baselineEfficiency);
    // With the best cache mechanism it also beats inverting.
    EXPECT_LT(summary.penelopeEfficiencyDynamic,
              summary.invertEfficiency);
    EXPECT_GT(summary.maxGuardband, 0.04);
    EXPECT_LT(summary.maxGuardband, 0.10);
}

} // namespace
} // namespace penelope
