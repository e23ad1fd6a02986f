/**
 * @file
 * Tests for the extension modules: input-latch aging (Section 3.3)
 * and the NBTI-aware branch predictor (the cache-like block the
 * paper names but does not measure).
 */

#include <gtest/gtest.h>

#include "cache/branch_predictor.hh"
#include "circuit/latch.hh"
#include "common/rng.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// ----------------------------------------------------------- Latch

TEST(Latch, BalancedContentsNeedNoMitigation)
{
    LatchBank latches(8);
    latches.hold(Word(0x55), 10);
    latches.hold(Word(0xaa), 10);
    EXPECT_DOUBLE_EQ(latches.worstCaseStress(), 0.5);
    EXPECT_FALSE(latches.needsMitigation(
        GuardbandModel::paperCalibrated()));
}

TEST(Latch, WideSizingToleratesModerateBias)
{
    // Section 3.3: latch transistors are large, so even a fairly
    // biased latch often needs no dedicated mechanism.
    LatchBank latches(8);
    latches.hold(Word(0x00), 8);
    latches.hold(Word(0xff), 2);
    EXPECT_DOUBLE_EQ(latches.worstCaseStress(), 0.8);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    EXPECT_LT(latches.guardband(model),
              model.guardbandForZeroProb(0.8));
    EXPECT_FALSE(latches.needsMitigation(model));
}

TEST(Latch, ExtremeBiasEventuallyNeedsMitigation)
{
    LatchBank latches(4);
    latches.hold(Word(0x0), 1000);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    // 100% stress, wide attenuation 0.08: 1.6% < 2% balanced ->
    // still below the narrow-balanced margin by design.
    EXPECT_FALSE(latches.needsMitigation(model));
    // With a less aggressive wide attenuation it crosses the line.
    const GuardbandModel weak(0.02, 0.20, 0.5);
    EXPECT_TRUE(latches.needsMitigation(weak));
}

TEST(Latch, IdlePairAlternationBalancesLatches)
{
    // Section 4.3: alternating <0,0,0> / <1,1,1> during idle makes
    // the input latches hold opposite values for similar times.
    LatchBank latches(65); // a, b, cin of a 32-bit adder
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        // 21% of the time: biased real operands.
        if (rng.nextBool(0.21)) {
            latches.hold(BitWord(65, 0x13, 0), 1);
        } else if (i % 2 == 0) {
            latches.hold(BitWord(65, 0, 0), 1);
        } else {
            latches.hold(BitWord(65, ~Word(0), 1), 1);
        }
    }
    EXPECT_LT(latches.worstCaseStress(), 0.65);
}

TEST(Latch, BitWordOverloadMatchesWordOverload)
{
    LatchBank a(16);
    LatchBank b(16);
    a.hold(Word(0x1234), 7);
    b.hold(BitWord(16, 0x1234), 7);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.bias().zeroProbability(i),
                         b.bias().zeroProbability(i));
}

// ------------------------------------------------- BranchPredictor

TEST(BranchPredictor, LearnsStableBranch)
{
    BranchPredictor bp{BranchPredictorConfig()};
    // Always-taken branch at one PC: after warmup, all correct.
    for (int i = 0; i < 4; ++i)
        bp.predictAndTrain(0x400000, true, i);
    BranchPredictorStats before = bp.stats();
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(bp.predictAndTrain(0x400000, true, 10 + i));
    EXPECT_EQ(bp.stats().correct - before.correct, 100u);
}

TEST(BranchPredictor, HysteresisSurvivesOneFlip)
{
    BranchPredictor bp{BranchPredictorConfig()};
    for (int i = 0; i < 4; ++i)
        bp.predictAndTrain(0x1000, true, i);
    // One not-taken outlier must not flip the prediction.
    bp.predictAndTrain(0x1000, false, 5);
    EXPECT_TRUE(bp.predictAndTrain(0x1000, true, 6));
}

TEST(BranchPredictor, InvertedWindowReducesAccuracy)
{
    BranchPredictorConfig plain;
    BranchPredictorConfig inverted = plain;
    inverted.invertRatio = 0.5;
    BranchPredictor a(plain);
    BranchPredictor b(inverted);
    Rng rng(11);
    for (int i = 0; i < 40000; ++i) {
        // PCs cover the whole table so both the live and the
        // inverted halves are exercised.
        const Addr pc = 0x1000 + rng.nextInt(4096) * 4;
        const bool taken = (pc >> 4) & 1; // per-branch stable
        a.predictAndTrain(pc, taken, i);
        b.predictAndTrain(pc, taken, i);
    }
    EXPECT_GT(a.stats().accuracy(), 0.93);
    // Half the table is out of service: accuracy drops but the
    // fallback keeps it well above chance.
    EXPECT_LT(b.stats().accuracy(), a.stats().accuracy());
    EXPECT_GT(b.stats().accuracy(), 0.6);
    EXPECT_NEAR(b.invertRatio(), 0.5, 0.01);
}

TEST(BranchPredictor, RotationMovesWindow)
{
    BranchPredictorConfig cfg;
    cfg.tableEntries = 16;
    cfg.invertRatio = 0.25;
    cfg.rotatePeriod = 10;
    BranchPredictor bp(cfg);
    EXPECT_NEAR(bp.invertRatio(), 0.25, 0.01);
    for (Cycle t = 0; t < 200; t += 10)
        bp.tick(t);
    // Ratio invariant under rotation.
    EXPECT_NEAR(bp.invertRatio(), 0.25, 0.01);
}

TEST(BranchPredictor, InversionBalancesCounterBias)
{
    // Counters of mostly-not-taken branches sit at 0 (both bits
    // zero); inversion balances the cells.
    auto worst = [](double ratio) {
        BranchPredictorConfig cfg;
        cfg.tableEntries = 64;
        cfg.invertRatio = ratio;
        cfg.rotatePeriod = 50;
        BranchPredictor bp(cfg);
        Rng rng(7);
        Cycle now = 0;
        for (int i = 0; i < 40000; ++i) {
            ++now;
            bp.tick(now);
            const Addr pc = 0x1000 + rng.nextInt(64) * 4;
            bp.predictAndTrain(pc, rng.nextBool(0.05), now);
        }
        BranchPredictor *p = &bp;
        return p->finalizeBias(now).maxWorstCaseStress();
    };
    const double unprotected = worst(0.0);
    const double protected_ = worst(0.5);
    EXPECT_GT(unprotected, 0.9);
    EXPECT_LT(protected_, unprotected - 0.2);
}

TEST(BranchPredictor, WorkloadTakenRateLearnable)
{
    // Against the synthetic workload's branch stream.
    WorkloadSet w;
    TraceGenerator gen = w.generator(0);
    BranchPredictor bp{BranchPredictorConfig()};
    Cycle now = 0;
    unsigned branches = 0;
    while (branches < 5000) {
        const Uop uop = gen.next();
        ++now;
        if (uop.cls != UopClass::Branch)
            continue;
        ++branches;
        // Synthesise a PC from the uop stream position.
        bp.predictAndTrain(0x8000 + (branches % 256) * 4,
                           uop.taken, now);
    }
    // Bernoulli-taken branches: accuracy must beat always-wrong
    // and roughly track max(p, 1-p).
    EXPECT_GT(bp.stats().accuracy(), 0.5);
}

} // namespace
} // namespace penelope
