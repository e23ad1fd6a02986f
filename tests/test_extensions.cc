/**
 * @file
 * Tests for the NBTI-aware branch predictor (the cache-like block
 * the paper names but does not measure).
 */

#include <gtest/gtest.h>

#include "cache/branch_predictor.hh"
#include "common/rng.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

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
