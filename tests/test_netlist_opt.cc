/**
 * @file
 * Tests for the optimizing netlist compiler (netlist_opt.{hh,cc}):
 * optimized vs --no-netlist-opt bit-identity on random netlists at
 * every supported batch width, AgingSummary identity on the Figure-2
 * circuit and the three adder topologies, per-pass unit tests (CSE,
 * constant folding, INV fusion), the idempotent-finalize contract,
 * the Kogge-Stone op-count reduction floor the CI enforces, and the
 * result-cache compatibility pin: the optimizer changes no statistic,
 * so the cache salt stays put and warm caches written by unoptimized
 * binaries replay with zero stores under the optimized engine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "adder/idle_inputs.hh"
#include "circuit/aging.hh"
#include "circuit/netlist.hh"
#include "circuit/netlist_opt.hh"
#include "common/rng.hh"
#include "core/experiments.hh"
#include "core/resultcache.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

/**
 * Build a random netlist exercising every builder, like the one in
 * test_netlist_batch.cc.  Deterministic in the Rng seed, so two
 * calls with equal seeds build identical gate lists -- which is how
 * the tests below get the same circuit compiled under both optimizer
 * modes.
 */
Netlist
randomNetlist(Rng &rng, unsigned num_inputs, unsigned num_gates)
{
    Netlist n;
    std::vector<SignalId> pool;
    for (unsigned i = 0; i < num_inputs; ++i)
        pool.push_back(n.addInput());
    pool.push_back(n.addConst(false));
    pool.push_back(n.addConst(true));

    const auto pick = [&] {
        return pool[rng.nextInt(
            static_cast<std::uint32_t>(pool.size()))];
    };
    for (unsigned g = 0; g < num_gates; ++g) {
        SignalId out = invalidSignal;
        switch (rng.nextInt(10)) {
          case 0:
            out = n.addInv(pick());
            break;
          case 1:
            out = n.addNand({pick(), pick()});
            break;
          case 2:
            out = n.addNor({pick(), pick()});
            break;
          case 3: {
            std::vector<SignalId> fanin;
            const unsigned k = 3 + rng.nextInt(3);
            for (unsigned i = 0; i < k; ++i)
                fanin.push_back(pick());
            out = rng.nextBool() ? n.addNand(fanin)
                                 : n.addNor(fanin);
            break;
          }
          case 4:
            out = n.addAnd(pick(), pick());
            break;
          case 5:
            out = n.addOr(pick(), pick());
            break;
          case 6:
            out = n.addXor(pick(), pick());
            break;
          case 7:
            out = n.addXnor(pick(), pick());
            break;
          case 8:
            out = n.addMux(pick(), pick(), pick());
            break;
          default:
            out = n.addTgXor(pick(), pick());
            break;
        }
        pool.push_back(out);
    }
    n.finalize();
    return n;
}

// ------------------------------------- optimized == unoptimized

TEST(NetlistOpt, RandomNetlistsBitIdenticalAtEveryWidth)
{
    // The same gate list compiled both ways must resolve every net
    // to the same lane bits at W = 1 and through evaluateBatchWide
    // at W = 2/4/8 (whichever kernel serves them on this host).
    Rng seed_rng(0x0b71);
    for (int trial = 0; trial < 12; ++trial) {
        const unsigned num_inputs = 1 + seed_rng.nextInt(12);
        const unsigned num_gates = 1 + seed_rng.nextInt(80);
        const std::uint64_t seed = seed_rng();

        Rng rng_opt(seed);
        Rng rng_ref(seed);
        ScopedNetlistOpt enable(true);
        Netlist opt = randomNetlist(rng_opt, num_inputs, num_gates);
        ASSERT_TRUE(opt.optStats().optimized);
        Netlist ref;
        {
            ScopedNetlistOpt disable(false);
            ref = randomNetlist(rng_ref, num_inputs, num_gates);
        }
        ASSERT_FALSE(ref.optStats().optimized);
        ASSERT_EQ(opt.numSignals(), ref.numSignals());
        EXPECT_LE(opt.wordCount(), ref.wordCount());

        std::vector<std::uint64_t> in_flat(opt.numInputs() * 8);
        for (auto &w : in_flat)
            w = seed_rng();

        std::vector<std::uint64_t> opt_words;
        std::vector<std::uint64_t> ref_words;
        std::vector<std::uint64_t> single(opt.numInputs());
        for (std::size_t i = 0; i < opt.numInputs(); ++i)
            single[i] = in_flat[i * 8];
        opt.evaluateBatch(single.data(), opt_words);
        ref.evaluateBatch(single.data(), ref_words);
        ASSERT_EQ(opt_words.size(), opt.wordCount());
        ASSERT_EQ(ref_words.size(), ref.numSignals());
        for (std::size_t s = 0; s < opt.numSignals(); ++s) {
            ASSERT_EQ(opt.laneWord(opt_words.data(), s),
                      ref.laneWord(ref_words.data(), s))
                << "trial " << trial << " net " << s;
        }

        for (unsigned net_w : {2u, 4u, 8u}) {
            std::vector<std::uint64_t> in(opt.numInputs() * net_w);
            for (std::size_t i = 0; i < opt.numInputs(); ++i)
                for (unsigned w = 0; w < net_w; ++w)
                    in[i * net_w + w] = in_flat[i * 8 + w];
            std::vector<std::uint64_t> opt_wide;
            std::vector<std::uint64_t> ref_wide;
            opt.evaluateBatchWide(in.data(), opt_wide, net_w);
            ref.evaluateBatchWide(in.data(), ref_wide, net_w);
            for (unsigned w = 0; w < net_w; ++w) {
                for (std::size_t s = 0; s < opt.numSignals(); ++s) {
                    ASSERT_EQ(opt.laneWordWide(opt_wide.data(),
                                               net_w, w, s),
                              ref.laneWordWide(ref_wide.data(),
                                               net_w, w, s))
                        << "trial " << trial << " W " << net_w
                        << " word " << w << " net " << s;
                }
            }
        }
    }
}

/** Exact equality of two summaries. */
void
expectSummariesIdentical(const AgingSummary &x,
                         const AgingSummary &y)
{
    EXPECT_EQ(x.worstNarrowZeroProb, y.worstNarrowZeroProb);
    EXPECT_EQ(x.worstWideZeroProb, y.worstWideZeroProb);
    EXPECT_EQ(x.narrowFullyStressedFraction,
              y.narrowFullyStressedFraction);
    EXPECT_EQ(x.guardband, y.guardband);
    EXPECT_EQ(x.numDevices, y.numDevices);
    EXPECT_EQ(x.numNarrow, y.numNarrow);
    EXPECT_EQ(x.numWide, y.numWide);
}

TEST(NetlistOpt, Figure2AgingSummaryIdentity)
{
    // Batched aging accounting over the optimized stream must
    // produce the same per-device probabilities and summary as the
    // unoptimized stream, device for device.
    Netlist opt;
    Netlist ref;
    {
        ScopedNetlistOpt enable(true);
        buildFigure2Circuit(opt);
        opt.finalize();
    }
    {
        ScopedNetlistOpt disable(false);
        buildFigure2Circuit(ref);
        ref.finalize();
    }

    Rng rng(0xf16a);
    PmosAgingTracker opt_tracker(opt);
    PmosAgingTracker ref_tracker(ref);
    std::vector<std::uint64_t> opt_words;
    std::vector<std::uint64_t> ref_words;
    std::uint64_t in[3];
    for (int round = 0; round < 5; ++round) {
        for (auto &w : in)
            w = rng();
        const std::uint64_t mask = rng();
        opt.evaluateBatch(in, opt_words);
        ref.evaluateBatch(in, ref_words);
        opt_tracker.observeBatch(opt_words.data(), mask);
        ref_tracker.observeBatch(ref_words.data(), mask);
    }
    ASSERT_EQ(opt_tracker.numDevices(), ref_tracker.numDevices());
    for (std::size_t d = 0; d < opt_tracker.numDevices(); ++d)
        EXPECT_EQ(opt_tracker.zeroProb(d), ref_tracker.zeroProb(d))
            << "device " << d;
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    expectSummariesIdentical(opt_tracker.summarize(model),
                             ref_tracker.summarize(model));
}

TEST(NetlistOpt, AdderAgingIdentityAcrossTopologies)
{
    // Figure-4 sweep + Figure-5 real-operand probabilities on every
    // adder topology: optimized == unoptimized, value for value.
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(2);
    const auto ops = collectAdderOperands(gen, 300);
    ASSERT_FALSE(ops.empty());
    const GuardbandModel model = GuardbandModel::paperCalibrated();

    for (int topology = 0; topology < 3; ++topology) {
        const auto make = [&](Adder *&out) -> void {
            switch (topology) {
              case 0:
                out = new LadnerFischerAdder(16);
                break;
              case 1:
                out = new RippleCarryAdder(16);
                break;
              default:
                out = new KoggeStoneAdder(16);
                break;
            }
        };
        Adder *opt_adder = nullptr;
        Adder *ref_adder = nullptr;
        {
            ScopedNetlistOpt enable(true);
            make(opt_adder);
        }
        {
            ScopedNetlistOpt disable(false);
            make(ref_adder);
        }
        ASSERT_TRUE(opt_adder->netlist().optStats().optimized);
        ASSERT_FALSE(ref_adder->netlist().optStats().optimized);

        AdderAgingAnalysis opt_an(*opt_adder, model);
        AdderAgingAnalysis ref_an(*ref_adder, model);

        const auto opt_sweep = opt_an.sweepPairs();
        const auto ref_sweep = ref_an.sweepPairs();
        ASSERT_EQ(opt_sweep.size(), ref_sweep.size());
        for (std::size_t i = 0; i < opt_sweep.size(); ++i) {
            EXPECT_EQ(opt_sweep[i].pair, ref_sweep[i].pair);
            EXPECT_EQ(opt_sweep[i].narrowFullyStressedFraction,
                      ref_sweep[i].narrowFullyStressedFraction)
                << opt_adder->name() << " pair " << i;
        }

        const auto opt_probs = opt_an.zeroProbsForOperands(ops);
        const auto ref_probs = ref_an.zeroProbsForOperands(ops);
        ASSERT_EQ(opt_probs.size(), ref_probs.size());
        for (std::size_t d = 0; d < opt_probs.size(); ++d)
            EXPECT_EQ(opt_probs[d], ref_probs[d])
                << opt_adder->name() << " device " << d;
        expectSummariesIdentical(opt_an.summarize(opt_probs),
                                 ref_an.summarize(ref_probs));

        delete opt_adder;
        delete ref_adder;
    }
}

// --------------------------------------------- per-pass unit tests

TEST(NetlistOpt, CseCollapsesDuplicateAndCommutedGates)
{
    ScopedNetlistOpt enable(true);
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId b = n.addInput();
    const SignalId x1 = n.addNand({a, b});
    const SignalId x2 = n.addNand({a, b});
    const SignalId x3 = n.addNand({b, a}); // commuted
    n.finalize();

    EXPECT_EQ(n.ref(x1).kind, NetRefKind::Word);
    EXPECT_EQ(n.ref(x1).word, n.ref(x2).word);
    EXPECT_EQ(n.ref(x1).word, n.ref(x3).word);
    EXPECT_EQ(n.ref(x2).kind, NetRefKind::Word);
    EXPECT_EQ(n.ref(x3).kind, NetRefKind::Word);
    // 2 inputs + 1 surviving NAND.
    EXPECT_EQ(n.wordCount(), 3u);
    EXPECT_EQ(n.optStats().cseReused, 2u);
}

TEST(NetlistOpt, DeMorganDualsShareOneOp)
{
    // NOR(!a, !b) == !NAND(a, b): the canonical family merges them,
    // so the NOR reads the NAND's word with inverted polarity.
    ScopedNetlistOpt enable(true);
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId b = n.addInput();
    const SignalId nand_ab = n.addNand({a, b});
    const SignalId na = n.addInv(a);
    const SignalId nb = n.addInv(b);
    const SignalId nor_n = n.addNor({na, nb});
    n.finalize();

    ASSERT_EQ(n.ref(nand_ab).kind, NetRefKind::Word);
    EXPECT_EQ(n.ref(nor_n).kind, NetRefKind::InvWord);
    EXPECT_EQ(n.ref(nor_n).word, n.ref(nand_ab).word);
}

TEST(NetlistOpt, ConstantAndTiedInputFolding)
{
    ScopedNetlistOpt enable(true);
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId c0 = n.addConst(false);
    const SignalId c1 = n.addConst(true);
    const SignalId nand_a0 = n.addNand({a, c0}); // == 1
    const SignalId nand_a1 = n.addNand({a, c1}); // == !a
    const SignalId nand_aa = n.addNand({a, a});  // == !a
    const SignalId nor_a1 = n.addNor({a, c1});   // == 0
    const SignalId xor_aa = n.addTgXor(a, a);    // == 0
    n.finalize();

    EXPECT_EQ(n.ref(nand_a0).kind, NetRefKind::Const1);
    EXPECT_EQ(n.ref(nor_a1).kind, NetRefKind::Const0);
    EXPECT_EQ(n.ref(xor_aa).kind, NetRefKind::Const0);
    EXPECT_EQ(n.ref(nand_a1).kind, NetRefKind::InvWord);
    EXPECT_EQ(n.ref(nand_a1).word, n.ref(a).word);
    EXPECT_EQ(n.ref(nand_aa).kind, NetRefKind::InvWord);
    EXPECT_EQ(n.ref(nand_aa).word, n.ref(a).word);
    // Everything folded: only the input survives as an op.
    EXPECT_EQ(n.wordCount(), 1u);
    EXPECT_GT(n.optStats().constFolded, 0u);
}

TEST(NetlistOpt, InvFusionAliasesInsteadOfMaterializing)
{
    ScopedNetlistOpt enable(true);
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId inv = n.addInv(a);
    const SignalId buf = n.addBuf(a); // 2 inverters -> plain alias
    const SignalId inv3 = n.addInv(inv); // !!a -> plain alias
    n.finalize();

    EXPECT_EQ(n.ref(inv).kind, NetRefKind::InvWord);
    EXPECT_EQ(n.ref(inv).word, n.ref(a).word);
    EXPECT_EQ(n.ref(buf).kind, NetRefKind::Word);
    EXPECT_EQ(n.ref(buf).word, n.ref(a).word);
    EXPECT_EQ(n.ref(inv3).kind, NetRefKind::Word);
    EXPECT_EQ(n.ref(inv3).word, n.ref(a).word);
    EXPECT_EQ(n.wordCount(), 1u);
    EXPECT_GE(n.optStats().invFused, 4u);
}

TEST(NetlistOpt, TgXorSharesAcrossCommutedOperands)
{
    ScopedNetlistOpt enable(true);
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId b = n.addInput();
    const SignalId x = n.addTgXor(a, b);
    const SignalId y = n.addTgXor(b, a);
    const SignalId xn = n.addTgXor(n.addInv(a), b); // XNOR by parity
    n.finalize();

    ASSERT_EQ(n.ref(x).kind, NetRefKind::Word);
    EXPECT_EQ(n.ref(y).kind, NetRefKind::Word);
    EXPECT_EQ(n.ref(y).word, n.ref(x).word);
    EXPECT_EQ(n.ref(xn).kind, NetRefKind::InvWord);
    EXPECT_EQ(n.ref(xn).word, n.ref(x).word);
}

TEST(NetlistOpt, DisabledModeKeepsIdentityNumbering)
{
    ScopedNetlistOpt disable(false);
    Rng rng(0x1d);
    Netlist n = randomNetlist(rng, 6, 30);
    EXPECT_FALSE(n.optStats().optimized);
    EXPECT_EQ(n.wordCount(), n.numSignals());
    EXPECT_EQ(n.numCompiledOps(), n.numSignals());
    EXPECT_EQ(n.optStats().opsBaseline, n.optStats().opsFinal);
    for (SignalId s = 0; s < n.numSignals(); ++s) {
        EXPECT_EQ(n.ref(s).kind, NetRefKind::Word);
        EXPECT_EQ(n.ref(s).word, s);
    }
}

// ---------------------------------------------- finalize contract

TEST(NetlistOpt, FinalizeIsIdempotent)
{
    Netlist n;
    buildFigure2Circuit(n);
    n.finalize();
    const std::size_t pmos = n.numPmos();
    const std::size_t ops = n.numCompiledOps();
    const std::size_t words = n.wordCount();
    const unsigned depth = n.depth();

    // A second call -- same or different fanout threshold -- is a
    // no-op: no device double-extraction, no recompilation.
    n.finalize();
    n.finalize(2);
    EXPECT_EQ(n.numPmos(), pmos);
    EXPECT_EQ(n.numCompiledOps(), ops);
    EXPECT_EQ(n.wordCount(), words);
    EXPECT_EQ(n.depth(), depth);
}

TEST(NetlistOpt, AdderDefensiveRefinalizeIsNoOp)
{
    LadnerFischerAdder adder(16);
    Netlist &n = adder.netlist();
    const std::size_t pmos = n.numPmos();
    const std::size_t words = n.wordCount();
    n.finalize();
    EXPECT_EQ(n.numPmos(), pmos);
    EXPECT_EQ(n.wordCount(), words);
}

// --------------------------------------------------- perf floors

TEST(NetlistOpt, KoggeStoneReductionMeetsCiFloor)
{
    // The CI perf gate asserts >= 20% op-count reduction on the
    // 32-bit Kogge-Stone adder; pin it here too so a pass
    // regression fails fast in debug runs.
    ScopedNetlistOpt enable(true);
    KoggeStoneAdder ks(32);
    const NetlistOptStats &stats = ks.netlist().optStats();
    ASSERT_TRUE(stats.optimized);
    EXPECT_EQ(stats.opsBaseline, ks.netlist().numGates());
    EXPECT_EQ(stats.opsFinal, ks.netlist().numCompiledOps());
    EXPECT_GE(stats.reductionPercent(), 20.0)
        << "opsBaseline " << stats.opsBaseline << " opsFinal "
        << stats.opsFinal;
    // INV fusion carries the prefix-adder win (every wideAnd/wideOr
    // cell ends in an inverter); CSE has nothing to merge here
    // because all the combine cells cover distinct bit ranges.
    EXPECT_GT(stats.invFused, 0u);
}

// -------------------------------------- result-cache compatibility

TEST(NetlistOptCache, SaltUnchangedByOptimizingCompiler)
{
    // The optimizing compiler changes no statistic, so the salt did
    // NOT bump: caches written by unoptimized builds stay valid.
    // If a later change alters any experiment output, bump the salt
    // and update this pin in the same commit.
    EXPECT_EQ(kResultCacheSalt, "penelope-result-cache-v1");
}

TEST(NetlistOptCache, WarmCacheFromUnoptimizedRunReplaysZeroStores)
{
    // Cold-populate the result cache with the optimizer OFF (the
    // PR-7 binary), then re-run the adder experiment with the
    // optimizer ON: every entry must replay as a pure hit (no new
    // stores) and the results must be bit-identical.
    const WorkloadSet workload;
    ExperimentOptions options;
    options.traceStride = 96;
    options.uopsPerTrace = 2'000;
    options.cacheUops = 2'000;
    options.adderOperandSamples = 400;

    ResultCache cache;
    options.cache = &cache;

    AdderExperimentResult cold;
    {
        ScopedNetlistOpt disable(false);
        cold = runAdderExperiment(workload, options);
    }
    const std::uint64_t stores = cache.stats().stores;
    EXPECT_GT(stores, 0u);

    ScopedNetlistOpt enable(true);
    const AdderExperimentResult warm =
        runAdderExperiment(workload, options);
    EXPECT_EQ(cache.stats().stores, stores); // pure hits
    EXPECT_GT(cache.stats().hits, 0u);

    ASSERT_EQ(cold.pairSweep.size(), warm.pairSweep.size());
    for (std::size_t i = 0; i < cold.pairSweep.size(); ++i) {
        EXPECT_EQ(cold.pairSweep[i].pair, warm.pairSweep[i].pair);
        EXPECT_EQ(cold.pairSweep[i].narrowFullyStressedFraction,
                  warm.pairSweep[i].narrowFullyStressedFraction);
    }
    EXPECT_EQ(cold.bestPair, warm.bestPair);
    EXPECT_EQ(cold.baselineGuardband, warm.baselineGuardband);
    ASSERT_EQ(cold.scenarios.size(), warm.scenarios.size());
    for (std::size_t i = 0; i < cold.scenarios.size(); ++i) {
        EXPECT_EQ(cold.scenarios[i].utilization,
                  warm.scenarios[i].utilization);
        EXPECT_EQ(cold.scenarios[i].guardband,
                  warm.scenarios[i].guardband);
    }
    EXPECT_EQ(cold.priorityUtilMin, warm.priorityUtilMin);
    EXPECT_EQ(cold.priorityUtilMax, warm.priorityUtilMax);
    EXPECT_EQ(cold.uniformUtil, warm.uniformUtil);
    EXPECT_EQ(cold.efficiency, warm.efficiency);
}

} // namespace
} // namespace penelope
