/**
 * @file
 * Tests for the scheduler: field layout (Table 2), the Figure-3
 * casuistic and K computation, repair techniques, the occupancy
 * driver and the profiling methodology.
 */

#include <gtest/gtest.h>

#include "scheduler/driver.hh"
#include "scheduler/fields.hh"
#include "scheduler/profile.hh"
#include "scheduler/scheduler.hh"
#include "scheduler/techniques.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// ---------------------------------------------------------- Fields

TEST(Fields, TableTwoLayout)
{
    const FieldLayout &layout = fieldLayout();
    EXPECT_EQ(layout.count(), 18u);
    EXPECT_EQ(layout.totalBits(), 144u);
    EXPECT_EQ(layout.figure8Bits(), 132u);
    EXPECT_EQ(layout.spec(FieldId::Latency).width, 5u);
    EXPECT_EQ(layout.spec(FieldId::MobId).width, 6u);
    EXPECT_EQ(layout.spec(FieldId::Src1Data).width, 32u);
    EXPECT_EQ(layout.spec(FieldId::Imm).width, 16u);
    EXPECT_EQ(layout.spec(FieldId::Opcode).width, 12u);
    EXPECT_FALSE(layout.spec(FieldId::Opcode).inFigure8);
}

TEST(Fields, OffsetsAreContiguous)
{
    const FieldLayout &layout = fieldLayout();
    unsigned expected = 0;
    for (unsigned f = 0; f < layout.count(); ++f) {
        EXPECT_EQ(layout.spec(f).offset, expected);
        expected += layout.spec(f).width;
    }
    EXPECT_EQ(expected, layout.totalBits());
}

TEST(Fields, ValueExtraction)
{
    Uop uop;
    uop.cls = UopClass::IntAlu;
    uop.latency = 3;
    uop.port = 2;
    uop.flags = 0x18;
    uop.opcode = 0xabc;
    RenameTags tags;
    tags.dstTag = 77;
    EXPECT_EQ(fieldValue(FieldId::Latency, uop, tags).lo(), 3u);
    EXPECT_EQ(fieldValue(FieldId::Port, uop, tags).lo(), 4u);
    EXPECT_EQ(fieldValue(FieldId::Flags, uop, tags).lo(), 0x18u);
    EXPECT_EQ(fieldValue(FieldId::DstTag, uop, tags).lo(), 77u);
    EXPECT_EQ(fieldValue(FieldId::Opcode, uop, tags).lo(), 0xabcu);
    EXPECT_EQ(fieldValue(FieldId::Valid, uop, tags).lo(), 1u);
}

TEST(Fields, CaptureFieldsFollowReadiness)
{
    Uop uop;
    uop.cls = UopClass::IntAlu;
    uop.srcReg1 = 1;
    uop.srcReg2 = 2;
    RenameTags tags;
    tags.ready1 = true;  // read at issue, capture field free
    tags.ready2 = false; // captured later, field in use
    EXPECT_FALSE(fieldUsedByUop(FieldId::Src1Data, uop, tags));
    EXPECT_TRUE(fieldUsedByUop(FieldId::Src2Data, uop, tags));
    EXPECT_FALSE(fieldUsedByUop(FieldId::Imm, uop, tags));
    uop.hasImm = true;
    EXPECT_TRUE(fieldUsedByUop(FieldId::Imm, uop, tags));
    // Non-capture fields are always live while the slot is busy.
    EXPECT_TRUE(fieldUsedByUop(FieldId::Taken, uop, tags));
    EXPECT_TRUE(fieldUsedByUop(FieldId::Flags, uop, tags));
}

// ------------------------------------------------------ Casuistic

TEST(Casuistic, IsvWhenMostlyFree)
{
    // Situation I: available more than 50% of the time.
    const BitDecision d = chooseTechnique(0.3, 0.9);
    EXPECT_EQ(d.technique, Technique::Isv);
}

TEST(Casuistic, All1WhenZeroShareExceedsHalf)
{
    // Situation III: occupancy x bias > 50%.
    const BitDecision d = chooseTechnique(0.8, 0.9);
    EXPECT_EQ(d.technique, Technique::All1);
    EXPECT_DOUBLE_EQ(d.k, 1.0);
}

TEST(Casuistic, All0WhenOneShareExceedsHalf)
{
    const BitDecision d = chooseTechnique(0.8, 0.1);
    EXPECT_EQ(d.technique, Technique::All0);
}

TEST(Casuistic, All1KBalancesExactly)
{
    // Situation II: perfect balancing feasible (the paper's 75%
    // busy / 67%-of-total-time example sits exactly on the
    // boundary; use a clearly interior point).
    const BitDecision d = chooseTechnique(0.75, 0.6);
    EXPECT_EQ(d.technique, Technique::All1K);
    EXPECT_NEAR(d.k, 0.8, 1e-9);
    EXPECT_NEAR(expectedBias(d, 0.75, 0.6), 0.5, 1e-9);
}

TEST(Casuistic, All0KBalancesExactly)
{
    const BitDecision d = chooseTechnique(0.7, 0.3);
    EXPECT_EQ(d.technique, Technique::All0K);
    EXPECT_NEAR(expectedBias(d, 0.7, 0.3), 0.5, 1e-9);
}

TEST(Casuistic, IsvExpectedBiasIsHalf)
{
    const BitDecision d = chooseTechnique(0.2, 0.95);
    EXPECT_NEAR(expectedBias(d, 0.2, 0.95), 0.5, 1e-9);
}

/** Property sweep over the whole (occupancy, bias) grid: wherever
 *  balancing is feasible the expected bias is 50%; elsewhere the
 *  residual equals the provable floor occupancy*bias. */
class CasuisticGrid
    : public ::testing::TestWithParam<std::tuple<double, double>>
{};

TEST_P(CasuisticGrid, ExpectedBiasOptimal)
{
    const double occ = std::get<0>(GetParam());
    const double bias = std::get<1>(GetParam());
    const BitDecision d = chooseTechnique(occ, bias);
    const double result = expectedBias(d, occ, bias);
    const double zero_share = occ * bias;
    const double one_share = occ * (1.0 - bias);
    if (zero_share > 0.5) {
        // ALL1: residual bias towards 0 equals the provable floor.
        EXPECT_NEAR(result, zero_share, 1e-9);
    } else if (one_share > 0.5) {
        // ALL0: residual bias towards 1 equals the provable floor.
        EXPECT_NEAR(1.0 - result, one_share, 1e-9);
    } else {
        EXPECT_NEAR(result, 0.5, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CasuisticGrid,
    ::testing::Combine(
        ::testing::Values(0.1, 0.3, 0.55, 0.63, 0.8, 0.95),
        ::testing::Values(0.02, 0.2, 0.5, 0.8, 0.98)));

TEST(DutyGen, EmitsExactRate)
{
    DutyGenerator gen(0.75);
    int ones = 0;
    for (int i = 0; i < 1000; ++i)
        ones += gen.next();
    EXPECT_NEAR(ones / 1000.0, 0.75, 0.01);
}

TEST(DutyGen, ExtremesPinned)
{
    DutyGenerator all(1.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(all.next());
    DutyGenerator none(0.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(none.next());
}

TEST(Techniques, Names)
{
    EXPECT_STREQ(techniqueName(Technique::All1), "ALL1");
    EXPECT_STREQ(techniqueName(Technique::All1K), "ALL1-K%");
    EXPECT_STREQ(techniqueName(Technique::Isv), "ISV");
    EXPECT_STREQ(techniqueName(Technique::Unprotectable),
                 "unprotectable");
}

// ------------------------------------------------------ Scheduler

Uop
makeAluUop(Word src1, std::uint16_t imm)
{
    Uop uop;
    uop.cls = UopClass::IntAlu;
    uop.latency = 1;
    uop.srcReg1 = 0;
    uop.srcVal1 = src1;
    uop.hasImm = true;
    uop.imm = imm;
    uop.dstReg = 1;
    return uop;
}

TEST(Scheduler, AllocateReleaseLifecycle)
{
    Scheduler sched{SchedulerConfig{}};
    const int e = sched.allocate(makeAluUop(5, 3), RenameTags{}, 1);
    ASSERT_GE(e, 0);
    EXPECT_EQ(sched.busyCount(), 1u);
    sched.release(static_cast<unsigned>(e), 5);
    EXPECT_EQ(sched.busyCount(), 0u);
}

TEST(Scheduler, FullWhenAllSlotsBusy)
{
    SchedulerConfig cfg;
    cfg.numEntries = 2;
    Scheduler sched(cfg);
    EXPECT_GE(sched.allocate(makeAluUop(1, 1), RenameTags{}, 1), 0);
    EXPECT_GE(sched.allocate(makeAluUop(2, 2), RenameTags{}, 1), 0);
    EXPECT_TRUE(sched.full());
    EXPECT_EQ(sched.allocate(makeAluUop(3, 3), RenameTags{}, 1),
              -1);
}

TEST(Scheduler, OccupancyAccounting)
{
    SchedulerConfig cfg;
    cfg.numEntries = 4;
    Scheduler sched(cfg);
    const int e = sched.allocate(makeAluUop(1, 1), RenameTags{}, 0);
    sched.release(static_cast<unsigned>(e), 50);
    EXPECT_NEAR(sched.occupancy(100), 50.0 / 400.0, 1e-9);
}

TEST(Scheduler, ValidBitFollowsBusyState)
{
    SchedulerConfig cfg;
    cfg.numEntries = 1;
    Scheduler sched(cfg);
    const int e = sched.allocate(makeAluUop(1, 1), RenameTags{}, 0);
    sched.release(static_cast<unsigned>(e), 60);
    const auto bias = sched.biasVector(100);
    const unsigned valid_off =
        fieldLayout().spec(FieldId::Valid).offset;
    // Valid held 1 for 60 cycles, 0 for 40: bias0 = 0.4.
    EXPECT_NEAR(bias[valid_off], 0.4, 1e-9);
}

TEST(Scheduler, ProtectionRepairsAll1Field)
{
    SchedulerConfig cfg;
    cfg.numEntries = 1;
    Scheduler sched(cfg);
    std::vector<BitDecision> decisions(
        fieldLayout().totalBits(), BitDecision{});
    const FieldSpec &flags = fieldLayout().spec(FieldId::Flags);
    for (unsigned b = 0; b < flags.width; ++b)
        decisions[flags.offset + b] = {Technique::All1, 1.0};
    sched.configureProtection(decisions);
    sched.enableProtection(true);

    Uop uop = makeAluUop(0, 0); // flags = ZF only
    uop.flags = 0;
    const int e = sched.allocate(uop, RenameTags{}, 0);
    sched.release(static_cast<unsigned>(e), 10);
    const auto bias = sched.biasVector(100);
    // Flags bit 0: 10 cycles at 0 (busy), 90 cycles at 1 (ALL1).
    EXPECT_NEAR(bias[flags.offset], 0.1, 1e-9);
}

TEST(Scheduler, UnprotectedKeepsStaleContents)
{
    SchedulerConfig cfg;
    cfg.numEntries = 1;
    Scheduler sched(cfg);
    Uop uop = makeAluUop(0xffffffff, 0);
    uop.hasImm = false;
    uop.srcReg2 = 2;
    uop.srcVal2 = 0xffffffff;
    RenameTags tags;
    tags.ready1 = false; // operand captured: field in use
    tags.ready2 = false;
    const int e = sched.allocate(uop, tags, 0);
    sched.release(static_cast<unsigned>(e), 10);
    const auto bias = sched.biasVector(20);
    const FieldSpec &s1 = fieldLayout().spec(FieldId::Src1Data);
    // Stale ones persist through the idle period.
    EXPECT_NEAR(bias[s1.offset], 0.0, 1e-9);
}

TEST(Scheduler, IsvFieldBalancesOverTime)
{
    SchedulerConfig cfg;
    cfg.numEntries = 4;
    cfg.isvSampleInterval = 1;
    Scheduler sched(cfg);
    std::vector<BitDecision> decisions(
        fieldLayout().totalBits(), BitDecision{});
    const FieldSpec &imm = fieldLayout().spec(FieldId::Imm);
    for (unsigned b = 0; b < imm.width; ++b)
        decisions[imm.offset + b] = {Technique::Isv, 1.0};
    sched.configureProtection(decisions);
    sched.enableProtection(true);

    Rng rng(3);
    Cycle now = 0;
    std::vector<std::pair<int, Cycle>> live;
    for (int i = 0; i < 8000; ++i) {
        ++now;
        while (!live.empty() && live.front().second <= now) {
            sched.release(
                static_cast<unsigned>(live.front().first), now);
            live.erase(live.begin());
        }
        if ((i % 3) != 0)
            continue; // keep occupancy well below 50%
        Uop uop = makeAluUop(1, 0x0003); // biased immediate
        const int e = sched.allocate(uop, RenameTags{}, now);
        if (e >= 0)
            live.push_back({e, now + 3});
    }
    const auto bias = sched.biasVector(now);
    // Bit 15 of imm is always 0 while in use; ISV + meter must pull
    // its long-run bias towards 50%.
    EXPECT_NEAR(bias[imm.offset + 15], 0.5, 0.12);
}

// --------------------------------------------------------- Driver

TEST(SchedReplay, HitsTargetOccupancy)
{
    WorkloadSet w;
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig{});
    TraceGenerator gen = w.generator(3);
    const SchedReplayResult r = replay.run(gen, 40000);
    EXPECT_EQ(r.allocated, 40000u);
    EXPECT_EQ(r.released, 40000u);
    EXPECT_NEAR(r.occupancy, 0.63, 0.08);
}

TEST(SchedReplay, ClockPersists)
{
    WorkloadSet w;
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig{});
    TraceGenerator gen = w.generator(3);
    const SchedReplayResult r1 = replay.run(gen, 2000);
    const SchedReplayResult r2 = replay.run(gen, 2000);
    EXPECT_GT(r2.cycles, r1.cycles);
}

// -------------------------------------------------------- Profile

TEST(Profile, DecisionsCoverEveryBit)
{
    WorkloadSet w;
    const SchedulerProfile profile =
        profileScheduler(w, {0, 100, 300}, 15000);
    EXPECT_EQ(profile.bits.size(), fieldLayout().totalBits());
    EXPECT_NEAR(profile.slotOccupancy, 0.63, 0.1);

    const auto decisions = decideProtection(profile.bits);
    EXPECT_EQ(decisions.size(), fieldLayout().totalBits());
    // Valid is unprotectable.
    EXPECT_EQ(decisions[fieldLayout().spec(FieldId::Valid).offset]
                  .technique,
              Technique::Unprotectable);
    // Tags are self-balanced.
    const FieldSpec &dst = fieldLayout().spec(FieldId::DstTag);
    for (unsigned b = 0; b < dst.width; ++b)
        EXPECT_EQ(decisions[dst.offset + b].technique,
                  Technique::None);
    // Capture fields get ISV (available 70-75% of the time).
    const FieldSpec &s2 = fieldLayout().spec(FieldId::Src2Data);
    EXPECT_EQ(decisions[s2.offset].technique, Technique::Isv);
}

TEST(Profile, SummaryHasAllFields)
{
    std::vector<BitDecision> decisions(
        fieldLayout().totalBits(), BitDecision{});
    const auto summary = summarizeDecisions(decisions);
    EXPECT_EQ(summary.size(), numFields);
}

TEST(Profile, ProtectionReducesWorstBias)
{
    // End-to-end miniature of the Figure-8 experiment.
    WorkloadSet w;
    const SchedulerProfile profile =
        profileScheduler(w, {10, 210}, 15000);
    const auto decisions = decideProtection(profile.bits);

    auto worst = [&](bool protect) {
        Scheduler sched{SchedulerConfig{}};
        if (protect) {
            sched.configureProtection(decisions);
            sched.enableProtection(true);
        }
        SchedulerReplay replay(sched, SchedReplayConfig{});
        Cycle clock = 0;
        for (unsigned idx : {50u, 250u, 450u}) {
            TraceGenerator gen = w.generator(idx);
            clock = replay.run(gen, 15000).cycles;
        }
        return sched.worstFigure8Bias(clock);
    };
    const double baseline = worst(false);
    const double protected_bias = worst(true);
    EXPECT_GT(baseline, 0.95);
    EXPECT_LT(protected_bias, 0.70);
}

} // namespace
} // namespace penelope
