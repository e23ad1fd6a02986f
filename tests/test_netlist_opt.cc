/**
 * @file
 * Tests for the optimizing netlist compiler (netlist_opt.{hh,cc}):
 * per-transform unit tests (CSE, De Morgan canonicalization,
 * constant folding, INV fusion, XOR sharing, K-ary complement
 * demotion) read through the observable results -- word counts,
 * NetRef kinds and the op stream -- plus the idempotent-finalize
 * contract, the Kogge-Stone op-count reduction floor, and the
 * result-cache salt pin.  Value identity of the compiled stream
 * against the scalar gate-list interpreter, and its topological,
 * dense word numbering, live in test_netlist_batch.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "adder/adder.hh"
#include "circuit/netlist.hh"
#include "circuit/netlist_opt.hh"
#include "core/resultcache.hh"

namespace penelope {
namespace {

/** Ops of kind @p k in @p n's compiled stream. */
std::size_t
countOps(const Netlist &n, CompiledOp::Kind k)
{
    const auto &ops = n.compiledOps();
    return static_cast<std::size_t>(
        std::count_if(ops.begin(), ops.end(),
                      [k](const CompiledOp &op) { return op.kind == k; }));
}

// ---------------------------------------- per-transform unit tests

TEST(NetlistOpt, CseCollapsesDuplicateAndCommutedGates)
{
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
    // 2 inputs + 1 surviving NAND: the two duplicates reuse it.
    EXPECT_EQ(n.wordCount(), 3u);
    EXPECT_EQ(countOps(n, CompiledOp::Kind::Nand2), 1u);
}

TEST(NetlistOpt, DeMorganDualsShareOneOp)
{
    // NOR(!a, !b) == !NAND(a, b): the canonical family merges them,
    // so the NOR reads the NAND's word with inverted polarity.
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
    EXPECT_EQ(n.ref(c0).kind, NetRefKind::Const0);
    EXPECT_EQ(n.ref(c1).kind, NetRefKind::Const1);
    // Everything folded: only the input survives as an op.
    EXPECT_EQ(n.wordCount(), 1u);
}

TEST(NetlistOpt, InvFusionAliasesInsteadOfMaterializing)
{
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
    // Four inverters, none materialized: only the input is an op.
    EXPECT_EQ(n.wordCount(), 1u);
    EXPECT_EQ(countOps(n, CompiledOp::Kind::Inv), 0u);
}

TEST(NetlistOpt, KaryComplementMaterializesOneInvPerSource)
{
    // A 3-input NAND cannot absorb a complemented fanin, so the
    // alias !a demotes to one Inv op, shared by every K-ary
    // consumer of !a.
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId b = n.addInput();
    const SignalId c = n.addInput();
    const SignalId d = n.addInput();
    const SignalId na = n.addInv(a);
    const SignalId x = n.addNand({na, b, c});
    const SignalId y = n.addNand({c, na, b, b}); // CSE with x
    const SignalId w = n.addNand({na, b, d});
    n.finalize();

    EXPECT_EQ(n.ref(x).kind, NetRefKind::Word);
    EXPECT_EQ(n.ref(y).word, n.ref(x).word);
    EXPECT_NE(n.ref(w).word, n.ref(x).word);
    // 4 inputs + one Inv + two NandK.
    EXPECT_EQ(countOps(n, CompiledOp::Kind::Inv), 1u);
    EXPECT_EQ(countOps(n, CompiledOp::Kind::NandK), 2u);
    EXPECT_EQ(n.wordCount(), 7u);
}

TEST(NetlistOpt, TgXorSharesAcrossCommutedOperands)
{
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
    // The optimizer's floor: >= 20% op-count reduction from one op
    // per gate on the 32-bit Kogge-Stone adder (measured 50%),
    // checked in every ctest run.
    KoggeStoneAdder ks(32);
    const Netlist &n = ks.netlist();
    const double gates = static_cast<double>(n.numGates());
    const double ops = static_cast<double>(n.numCompiledOps());
    EXPECT_GE(100.0 * (1.0 - ops / gates), 20.0)
        << "gates " << n.numGates() << " ops " << n.numCompiledOps();
    // INV fusion carries the prefix-adder win (every wideAnd/wideOr
    // cell ends in an inverter); CSE has nothing to merge here
    // because all the combine cells cover distinct bit ranges.
    std::size_t inv_gates = 0;
    for (std::size_t g = 0; g < n.numGates(); ++g)
        inv_gates += n.gate(g).type == GateType::Inv ? 1 : 0;
    EXPECT_LT(countOps(n, CompiledOp::Kind::Inv), inv_gates);
}

// -------------------------------------- result-cache compatibility

TEST(NetlistOptCache, SaltUnchangedByOptimizingCompiler)
{
    // The optimizing compiler changes no statistic, so the salt did
    // NOT bump: caches written before it existed stay valid.  If a
    // later change alters any experiment output, bump the salt and
    // update this pin in the same commit.
    EXPECT_EQ(kResultCacheSalt, "penelope-result-cache-v1");
}

} // namespace
} // namespace penelope
