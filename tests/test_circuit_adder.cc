/**
 * @file
 * Tests for the netlist substrate and the gate-level adders:
 * functional correctness against 64-bit reference arithmetic,
 * PMOS extraction, aging accounting and the idle-input machinery.
 */

#include <gtest/gtest.h>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "adder/idle_inputs.hh"
#include "circuit/aging.hh"
#include "circuit/netlist.hh"
#include "common/rng.hh"
#include "netlist_reference.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// --------------------------------------------------------- Netlist

TEST(Netlist, PrimitiveTruthTables)
{
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId b = n.addInput();
    const SignalId inv = n.addInv(a);
    const SignalId nand2 = n.addNand({a, b});
    const SignalId nor2 = n.addNor({a, b});
    const SignalId and2 = n.addAnd(a, b);
    const SignalId or2 = n.addOr(a, b);
    const SignalId xor2 = n.addXor(a, b);
    const SignalId xnor2 = n.addXnor(a, b);
    const SignalId tg = n.addTgXor(a, b);

    std::vector<std::uint8_t> sig;
    for (int va = 0; va <= 1; ++va) {
        for (int vb = 0; vb <= 1; ++vb) {
            reference::evaluate(n, {va != 0, vb != 0}, sig);
            EXPECT_EQ(sig[inv], va ^ 1);
            EXPECT_EQ(sig[nand2], (va & vb) ^ 1);
            EXPECT_EQ(sig[nor2], (va | vb) ^ 1);
            EXPECT_EQ(sig[and2], va & vb);
            EXPECT_EQ(sig[or2], va | vb);
            EXPECT_EQ(sig[xor2], va ^ vb);
            EXPECT_EQ(sig[xnor2], (va ^ vb) ^ 1);
            EXPECT_EQ(sig[tg], va ^ vb);
        }
    }
}

TEST(Netlist, MuxTruthTable)
{
    Netlist n;
    const SignalId s = n.addInput();
    const SignalId a = n.addInput();
    const SignalId b = n.addInput();
    const SignalId mux = n.addMux(s, a, b);
    std::vector<std::uint8_t> sig;
    for (int vs = 0; vs <= 1; ++vs)
        for (int va = 0; va <= 1; ++va)
            for (int vb = 0; vb <= 1; ++vb) {
                reference::evaluate(n, {vs != 0, va != 0, vb != 0},
                                    sig);
                EXPECT_EQ(sig[mux], vs ? va : vb);
            }
}

TEST(Netlist, ConstantsEvaluate)
{
    Netlist n;
    n.addInput();
    const SignalId c0 = n.addConst(false);
    const SignalId c1 = n.addConst(true);
    std::vector<std::uint8_t> sig;
    reference::evaluate(n, {true}, sig);
    EXPECT_EQ(sig[c0], 0);
    EXPECT_EQ(sig[c1], 1);
}

TEST(Netlist, PmosCountsPerGate)
{
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId b = n.addInput();
    n.addInv(a);        // 1 PMOS
    n.addNand({a, b});  // 2 PMOS
    n.addNor({a, b});   // 2 PMOS
    n.finalize();
    EXPECT_EQ(n.numPmos(), 5u);
}

TEST(Netlist, TgXorPmosCount)
{
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId b = n.addInput();
    n.addTgXor(a, b); // 2 inverters + 2 pass devices
    n.finalize();
    EXPECT_EQ(n.numPmos(), 4u);
}

TEST(Netlist, FanoutWidthClassification)
{
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId hub = n.addInv(a);
    // Give 'hub' fanout 4.
    for (int i = 0; i < 4; ++i)
        n.addInv(hub);
    n.finalize(4);
    bool hub_is_wide = false;
    for (const auto &d : n.pmosDevices()) {
        if (d.gateSignal == a && d.width == WidthClass::Wide)
            hub_is_wide = true;
    }
    EXPECT_TRUE(hub_is_wide);
}

TEST(Netlist, MarkWideForces)
{
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId out = n.addInv(a);
    n.markWide(out);
    n.finalize(100); // fanout threshold never reached
    ASSERT_EQ(n.pmosDevices().size(), 1u);
    EXPECT_EQ(n.pmosDevices()[0].width, WidthClass::Wide);
}

TEST(Netlist, Figure2Circuit)
{
    // D = NOT(NOR(NAND(A,B), C)): D = 1 iff (A NAND B) or C.
    Netlist n;
    const SignalId d = buildFigure2Circuit(n);
    std::vector<std::uint8_t> sig;
    for (int a = 0; a <= 1; ++a)
        for (int b = 0; b <= 1; ++b)
            for (int c = 0; c <= 1; ++c) {
                reference::evaluate(n, {a != 0, b != 0, c != 0},
                                    sig);
                const int expect = ((!(a && b)) || c) ? 1 : 0;
                EXPECT_EQ(sig[d], expect);
            }
}

TEST(Netlist, DepthComputed)
{
    Netlist n;
    const SignalId a = n.addInput();
    SignalId s = a;
    for (int i = 0; i < 5; ++i)
        s = n.addInv(s);
    n.finalize();
    EXPECT_EQ(n.depth(), 5u);
}

// ----------------------------------------------------------- Aging

TEST(Aging, StressWhenGateAtZero)
{
    Netlist n;
    const SignalId a = n.addInput();
    n.addInv(a);
    n.finalize();
    PmosAgingTracker tracker(n);
    reference::observeVector(tracker, {false}, 3);
    reference::observeVector(tracker, {true}, 1);
    EXPECT_DOUBLE_EQ(tracker.zeroProb(0), 0.75);
}

TEST(Aging, Figure2BiasExample)
{
    // Section 3: if all inputs are "0" most of the time, D is very
    // biased towards "0" and the output inverter's PMOS degrades.
    Netlist n;
    const SignalId d = buildFigure2Circuit(n);
    (void)d;
    const SignalId dummy = n.addInv(d); // consumer of D
    (void)dummy;
    n.finalize();
    PmosAgingTracker tracker(n);
    // All-zero inputs 90% of the time: D = 1 then... A=B=0 -> NAND=1,
    // NOR(1, C)=0 -> D=... D=NOT(0)=1. So bias D towards 1; use
    // C=1 mix to exercise both.
    for (int i = 0; i < 9; ++i)
        reference::observeVector(tracker, {false, false, false});
    reference::observeVector(tracker, {true, true, false});
    const auto summary =
        tracker.summarize(GuardbandModel::paperCalibrated());
    EXPECT_GT(summary.worstNarrowZeroProb, 0.89);
    EXPECT_GT(summary.guardband, 0.1);
}

TEST(Aging, SummaryCountsWidthClasses)
{
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId w = n.addInv(a);
    n.markWide(w);
    n.addInv(a);
    n.finalize(100);
    PmosAgingTracker tracker(n);
    reference::observeVector(tracker, {false});
    const auto s =
        tracker.summarize(GuardbandModel::paperCalibrated());
    EXPECT_EQ(s.numDevices, 2u);
    EXPECT_EQ(s.numNarrow, 1u);
    EXPECT_EQ(s.numWide, 1u);
    EXPECT_DOUBLE_EQ(s.worstNarrowZeroProb, 1.0);
    EXPECT_DOUBLE_EQ(s.worstWideZeroProb, 1.0);
    // One narrow fully stressed out of two devices.
    EXPECT_DOUBLE_EQ(s.narrowFullyStressedFraction, 0.5);
}

// ---------------------------------------------------------- Adders

/** Property sweep: all three topologies match reference addition. */
class AdderCorrectness
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{};

TEST_P(AdderCorrectness, MatchesReference)
{
    const int topology = std::get<0>(GetParam());
    const unsigned width = std::get<1>(GetParam());
    std::unique_ptr<Adder> adder;
    switch (topology) {
      case 0:
        adder = std::make_unique<LadnerFischerAdder>(width);
        break;
      case 1:
        adder = std::make_unique<RippleCarryAdder>(width);
        break;
      default:
        adder = std::make_unique<KoggeStoneAdder>(width);
        break;
    }
    const std::uint64_t mask = width >= 64
        ? ~std::uint64_t(0)
        : (std::uint64_t(1) << width) - 1;
    Rng rng(width * 131 + topology);
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t a = rng() & mask;
        const std::uint64_t b = rng() & mask;
        const bool cin = rng.nextBool();
        bool cout = false;
        const std::uint64_t sum =
            reference::evaluate(*adder, a, b, cin, &cout);
        const unsigned __int128 full =
            static_cast<unsigned __int128>(a) + b + (cin ? 1 : 0);
        EXPECT_EQ(sum, static_cast<std::uint64_t>(full) & mask);
        EXPECT_EQ(cout, ((full >> width) & 1) != 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, AdderCorrectness,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(4u, 8u, 13u, 32u, 48u)));

TEST(Adder, EdgeOperands)
{
    LadnerFischerAdder adder(32);
    bool cout = false;
    EXPECT_EQ(reference::evaluate(adder, 0, 0, false), 0u);
    EXPECT_EQ(reference::evaluate(adder, 0xffffffff, 1, false, &cout),
              0u);
    EXPECT_TRUE(cout);
    EXPECT_EQ(reference::evaluate(adder, 0xffffffff, 0xffffffff, true,
                                  &cout),
              0xffffffffu);
    EXPECT_TRUE(cout);
}

TEST(Adder, LadnerFischerShallowerThanRipple)
{
    LadnerFischerAdder lf(32);
    RippleCarryAdder rc(32);
    EXPECT_LT(lf.netlist().depth(), rc.netlist().depth());
}

TEST(Adder, KoggeStoneLargerThanLadnerFischer)
{
    // KS trades wires/area for minimal fanout.
    LadnerFischerAdder lf(32);
    KoggeStoneAdder ks(32);
    EXPECT_GT(ks.netlist().numPmos(), lf.netlist().numPmos());
}

// ----------------------------------------------------- IdleInputs

TEST(IdleInputs, PaperNumbering)
{
    const auto &inputs = syntheticInputs();
    EXPECT_FALSE(inputs[0].inputA); // input 1 = <0,0,0>
    EXPECT_FALSE(inputs[0].inputB);
    EXPECT_FALSE(inputs[0].carryIn);
    EXPECT_FALSE(inputs[1].inputA); // input 2 = <0,0,1>
    EXPECT_TRUE(inputs[1].carryIn);
    EXPECT_TRUE(inputs[7].inputA); // input 8 = <1,1,1>
    EXPECT_TRUE(inputs[7].inputB);
    EXPECT_TRUE(inputs[7].carryIn);
}

TEST(IdleInputs, TwentyEightPairs)
{
    const auto pairs = allInputPairs();
    EXPECT_EQ(pairs.size(), 28u);
    EXPECT_EQ(pairLabel(pairs.front()), "1+2");
    EXPECT_EQ(pairLabel(pairs.back()), "7+8");
}

TEST(IdleInputs, SyntheticVectorReplicatesBits)
{
    LadnerFischerAdder adder(8);
    const auto v = reference::syntheticVector(adder, 7); // <1,1,1>
    for (bool bit : v)
        EXPECT_TRUE(bit);
    const auto v0 = reference::syntheticVector(adder, 0); // <0,0,0>
    for (bool bit : v0)
        EXPECT_FALSE(bit);
}

// ------------------------------------------------------- Analysis

TEST(Analysis, PairProbsAreHalfQuantised)
{
    LadnerFischerAdder adder(16);
    AdderAgingAnalysis an(adder,
                          GuardbandModel::paperCalibrated());
    const auto probs = an.zeroProbsForPair({0, 7});
    for (double p : probs) {
        EXPECT_TRUE(p == 0.0 || p == 0.5 || p == 1.0)
            << "prob " << p;
    }
}

TEST(Analysis, BestPairAlternatesEveryRail)
{
    // The winning pairs complement every input rail; under such a
    // pair no wide device's stress exceeds 50% on the G-chain and
    // the narrow fully-stressed fraction is minimal.
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis an(adder,
                          GuardbandModel::paperCalibrated());
    const InputPair best = bestPair(an.sweepPairs());
    const auto &inputs = syntheticInputs();
    const SyntheticInput &x = inputs[best.first];
    const SyntheticInput &y = inputs[best.second];
    // At least operand A or B alternates, and so does the carry-in
    // chain stimulus (g or cin).
    EXPECT_TRUE(x.inputA != y.inputA || x.inputB != y.inputB);
}

TEST(Analysis, BestPairBeatsWorstPair)
{
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis an(adder,
                          GuardbandModel::paperCalibrated());
    const auto sweep = an.sweepPairs();
    double lo = 1.0;
    double hi = 0.0;
    for (const auto &e : sweep) {
        lo = std::min(lo, e.narrowFullyStressedFraction);
        hi = std::max(hi, e.narrowFullyStressedFraction);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.05);
}

TEST(Analysis, OperandSamplingCarryInMostlyZero)
{
    // Section 1.1: carry-in is "0" more than 90% of the time.
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    const auto ops = collectAdderOperands(gen, 2000);
    ASSERT_GT(ops.size(), 1000u);
    std::size_t zero = 0;
    for (const auto &op : ops)
        zero += !op.cin;
    EXPECT_GT(static_cast<double>(zero) / ops.size(), 0.90);
}

TEST(Analysis, GuardbandDropsWithIdleInjection)
{
    // Figure 5 shape: protected guardband < baseline, and lower
    // utilisation means lower guardband.
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(10);
    const auto ops = collectAdderOperands(gen, 1500);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis an(adder,
                          GuardbandModel::paperCalibrated());
    const auto real = an.zeroProbsForOperands(ops);
    const double baseline = an.baselineGuardband(real);
    const InputPair best = bestPair(an.sweepPairs());
    const double g30 = an.scenarioGuardband(real, 0.30, best);
    const double g21 = an.scenarioGuardband(real, 0.21, best);
    const double g11 = an.scenarioGuardband(real, 0.11, best);
    EXPECT_GT(baseline, 0.15);
    EXPECT_LT(g30, baseline);
    EXPECT_LT(g21, g30);
    EXPECT_LT(g11, g21);
    EXPECT_GT(g11, 0.0);
}

} // namespace
} // namespace penelope
