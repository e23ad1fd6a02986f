/**
 * @file
 * The optimizing netlist compiler (see netlist_opt.hh for the
 * contract).  Netlist::compile() builds ops_/extraFanins_/refs_
 * from gates_.
 *
 * The optimizer works on a literal algebra: every net folds to a
 * Lit = (node, complemented?) where a node is a value-numbered
 * computation with a fixed polarity.  Node kinds:
 *
 *   Input     -- primary input word
 *   And2(x,y) -- value = ~(x & y), the 2-input NAND of two literals
 *                (mixed-polarity fanins lower to Nand2 / Nand2ca /
 *                Or2 ops without materializing an inverter)
 *   Xor2(m,n) -- value = m ^ n of two plain nodes (fanin parity is
 *                folded into the consumer literal, so XOR and XNOR
 *                trees share one node)
 *   AndK(L)   -- value = ~(AND of literals), k >= 3
 *   OrK(L)    -- value = ~(OR of literals), k >= 3; De Morgan dual
 *                of AndK -- whichever form has fewer complemented
 *                fanins is the canonical one
 *
 * Every gate reduces to a Lit through one NAND-based folder
 * (litNand) plus an XOR folder (litXor): NOR(L) = ~NAND(~L), INV is
 * pure literal complement, constants and tied/complementary fanins
 * fold before any node is created.  Value numbering happens at node
 * interning: an identical canonical key returns the existing node
 * (CSE).
 *
 * Materialization emits one CompiledOp per node in node (interning)
 * order.  A node's fanins were interned before it, so every operand
 * word is smaller than the op that reads it and an op's output word
 * is its position in the stream: one forward pass over the stream
 * evaluates it.  K-ary fanins that need a complement materialize one
 * memoized Inv op right before their first consumer.
 */

#include "netlist.hh"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>
#include <vector>

namespace penelope {

namespace {

constexpr std::uint32_t kConstNode = 0xFFFFFFFFu;
constexpr std::uint32_t kNoWord = 0xFFFFFFFFu;

/** A literal: a node or its complement, or a constant. */
struct Lit
{
    std::uint32_t node = kConstNode;
    bool inv = false; ///< for constants, inv IS the value
};

Lit
constLit(bool value)
{
    return {kConstNode, value};
}

bool
isConst(Lit l)
{
    return l.node == kConstNode;
}

bool
constVal(Lit l)
{
    return l.inv;
}

Lit
operator~(Lit l)
{
    return {l.node, !l.inv};
}

/** Total order / canonical key encoding of a literal. */
std::uint64_t
enc(Lit l)
{
    return (std::uint64_t(l.node) << 1) | (l.inv ? 1u : 0u);
}

struct Node
{
    enum class Kind : std::uint8_t
    {
        Input,
        And2,
        Xor2,
        AndK,
        OrK,
    };

    Kind kind;
    Lit a{}, b{};          ///< And2 / Xor2 fanins
    std::vector<Lit> lits; ///< AndK / OrK fanins (all of them)
    std::uint32_t ordinal = 0; ///< Input
};

/** Key-space tags so different node kinds can never collide. */
enum : std::uint64_t
{
    kKeyAnd2 = 1,
    kKeyXor2 = 2,
    kKeyAndK = 3,
    kKeyOrK = 4,
};

struct Builder
{
    std::vector<Node> nodes;
    std::map<std::vector<std::uint64_t>, std::uint32_t> memo;

    std::uint32_t intern(std::vector<std::uint64_t> key, Node n)
    {
        const auto next = static_cast<std::uint32_t>(nodes.size());
        auto [it, inserted] = memo.try_emplace(std::move(key), next);
        if (inserted)
            nodes.push_back(std::move(n));
        return it->second;
    }

    std::uint32_t inputNode(std::uint32_t ordinal)
    {
        Node n;
        n.kind = Node::Kind::Input;
        n.ordinal = ordinal;
        nodes.push_back(std::move(n));
        return static_cast<std::uint32_t>(nodes.size() - 1);
    }

    /**
     * Fold and intern ~(AND of @p ls): the one primitive every
     * NAND/NOR gate reduces to.  Constant fanins fold, duplicates
     * dedup, complementary pairs collapse the whole gate, single
     * survivors alias, and k-ary survivors canonicalize into the
     * De Morgan family with fewer complemented fanins.
     */
    Lit litNand(std::vector<Lit> ls)
    {
        std::vector<Lit> real;
        real.reserve(ls.size());
        for (Lit l : ls) {
            if (isConst(l)) {
                if (!constVal(l)) {
                    // AND with 0 is 0; NAND is constant 1.
                    return constLit(true);
                }
                continue; // const-1 fanins drop out of the AND
            }
            real.push_back(l);
        }
        std::sort(real.begin(), real.end(),
                  [](Lit x, Lit y) { return enc(x) < enc(y); });
        real.erase(std::unique(real.begin(), real.end(),
                               [](Lit x, Lit y) {
                                   return enc(x) == enc(y);
                               }),
                   real.end());
        for (std::size_t i = 1; i < real.size(); ++i) {
            if (real[i].node == real[i - 1].node) {
                // x AND ~x: the gate output is constant 1.
                return constLit(true);
            }
        }
        if (real.empty()) {
            // Every fanin was constant 1: NAND of all-ones is 0.
            return constLit(false);
        }
        if (real.size() == 1) {
            // NAND(x) degenerates to an inverter: pure alias.
            return ~real[0];
        }
        if (real.size() == 2) {
            Node n;
            n.kind = Node::Kind::And2;
            n.a = real[0];
            n.b = real[1];
            return {intern({kKeyAnd2, enc(real[0]), enc(real[1])},
                           std::move(n)),
                    false};
        }
        // K-ary: canonicalize into the De Morgan family with fewer
        // complemented fanins (ties stay AndK), so NAND-of-inverted
        // and NOR-of-plain value-number together and lowering
        // demotes as few literals as possible.
        std::size_t invc = 0;
        for (const Lit &l : real)
            invc += l.inv ? 1 : 0;
        if (invc * 2 <= real.size()) {
            std::vector<std::uint64_t> key{kKeyAndK};
            for (const Lit &l : real)
                key.push_back(enc(l));
            Node n;
            n.kind = Node::Kind::AndK;
            n.lits = std::move(real);
            return {intern(std::move(key), std::move(n)), false};
        }
        for (Lit &l : real)
            l.inv = !l.inv;
        std::sort(real.begin(), real.end(),
                  [](Lit x, Lit y) { return enc(x) < enc(y); });
        std::vector<std::uint64_t> key{kKeyOrK};
        for (const Lit &l : real)
            key.push_back(enc(l));
        Node n;
        n.kind = Node::Kind::OrK;
        n.lits = std::move(real);
        // ~(AND li) = NOT ~(OR ~li)
        return {intern(std::move(key), std::move(n)), true};
    }

    /** Fold and intern @p la XOR @p lb (TG-XOR cells). */
    Lit litXor(Lit la, Lit lb)
    {
        if (isConst(la) && isConst(lb))
            return constLit(constVal(la) != constVal(lb));
        if (isConst(la))
            std::swap(la, lb);
        if (isConst(lb)) {
            // x XOR const is x or ~x: pure alias.
            return {la.node, la.inv != constVal(lb)};
        }
        if (la.node == lb.node) {
            // x XOR x = 0, x XOR ~x = 1.
            return constLit(la.inv != lb.inv);
        }
        // Fanin parity folds into the output literal, so the node
        // itself is always the plain XOR of the two smaller-first
        // nodes: XOR/XNOR trees over the same operands share it.
        const bool parity = la.inv != lb.inv;
        const std::uint32_t n0 = std::min(la.node, lb.node);
        const std::uint32_t n1 = std::max(la.node, lb.node);
        Node n;
        n.kind = Node::Kind::Xor2;
        n.a = {n0, false};
        n.b = {n1, false};
        return {intern({kKeyXor2, n0, n1}, std::move(n)), parity};
    }
};

} // namespace

void
Netlist::compile()
{
    assert(ops_.empty() &&
           "compiled op stream must be built exactly once");

    // ---- Fold every gate to a literal (CSE + folding + INV
    // ---- fusion happen here, before anything materializes).
    Builder b;
    std::vector<Lit> lits(producers_.size());
    std::uint32_t next_input = 0;
    std::vector<Lit> scratch;
    for (const Gate &g : gates_) {
        switch (g.type) {
          case GateType::Input:
            lits[g.output] = {b.inputNode(next_input++), false};
            break;
          case GateType::Const0:
            lits[g.output] = constLit(false);
            break;
          case GateType::Const1:
            lits[g.output] = constLit(true);
            break;
          case GateType::Inv:
            lits[g.output] = ~lits[g.inputs[0]];
            break;
          case GateType::Nand:
            scratch.clear();
            for (auto s : g.inputs)
                scratch.push_back(lits[s]);
            lits[g.output] = b.litNand(scratch);
            break;
          case GateType::Nor:
            // NOR(L) = NOT NAND(~L) (De Morgan).
            scratch.clear();
            for (auto s : g.inputs)
                scratch.push_back(~lits[s]);
            lits[g.output] = ~b.litNand(scratch);
            break;
          case GateType::TgPass:
            lits[g.output] =
                b.litXor(lits[g.inputs[0]], lits[g.inputs[1]]);
            break;
        }
    }

    // ---- Emission: one op per node in node order; an op's output
    // ---- word is its position in the stream.  K-ary complemented
    // ---- fanins demote to a memoized Inv op right before their
    // ---- first consumer.
    ops_.clear();
    ops_.reserve(b.nodes.size());
    extraFanins_.clear();
    std::vector<std::uint32_t> nodeWord(b.nodes.size(), kNoWord);
    std::vector<std::uint32_t> invWord(b.nodes.size(), kNoWord);
    auto push = [&](const CompiledOp &op) {
        ops_.push_back(op);
        return static_cast<std::uint32_t>(ops_.size() - 1);
    };
    auto demote = [&](std::uint32_t m) {
        if (invWord[m] != kNoWord)
            return invWord[m];
        CompiledOp op;
        op.kind = CompiledOp::Kind::Inv;
        op.a = nodeWord[m];
        return invWord[m] = push(op);
    };
    auto wordOf = [&](Lit l) {
        return l.inv ? demote(l.node) : nodeWord[l.node];
    };
    std::vector<std::uint32_t> ws;
    for (std::uint32_t ni = 0; ni < b.nodes.size(); ++ni) {
        const Node &n = b.nodes[ni];
        CompiledOp op;
        switch (n.kind) {
          case Node::Kind::Input:
            op.kind = CompiledOp::Kind::Input;
            op.a = n.ordinal;
            break;
          case Node::Kind::And2: {
            const std::uint32_t wa = nodeWord[n.a.node];
            const std::uint32_t wb = nodeWord[n.b.node];
            if (n.a.inv && n.b.inv) {
                // ~(~x & ~y) = x | y
                op.kind = CompiledOp::Kind::Or2;
                op.a = wa;
                op.b = wb;
            } else if (n.a.inv) {
                op.kind = CompiledOp::Kind::Nand2ca;
                op.a = wa;
                op.b = wb;
            } else if (n.b.inv) {
                op.kind = CompiledOp::Kind::Nand2ca;
                op.a = wb;
                op.b = wa;
            } else {
                op.kind = CompiledOp::Kind::Nand2;
                op.a = wa;
                op.b = wb;
            }
            break;
          }
          case Node::Kind::Xor2:
            op.kind = CompiledOp::Kind::TgPass;
            op.a = nodeWord[n.a.node];
            op.b = nodeWord[n.b.node];
            break;
          case Node::Kind::AndK:
          case Node::Kind::OrK: {
            op.kind = n.kind == Node::Kind::AndK
                ? CompiledOp::Kind::NandK
                : CompiledOp::Kind::NorK;
            ws.clear();
            for (const Lit &l : n.lits)
                ws.push_back(wordOf(l));
            op.a = ws[0];
            op.b = ws[1];
            op.extra =
                static_cast<std::uint32_t>(extraFanins_.size());
            op.extraCount =
                static_cast<std::uint32_t>(ws.size() - 2);
            extraFanins_.insert(extraFanins_.end(), ws.begin() + 2,
                                ws.end());
            break;
          }
        }
        nodeWord[ni] = push(op);
    }

    refs_.resize(producers_.size());
    for (std::size_t s = 0; s < producers_.size(); ++s) {
        const Lit l = lits[s];
        if (isConst(l)) {
            refs_[s] = {0, constVal(l) ? NetRefKind::Const1
                                       : NetRefKind::Const0};
        } else {
            refs_[s] = {nodeWord[l.node],
                        l.inv ? NetRefKind::InvWord
                              : NetRefKind::Word};
        }
    }
}

} // namespace penelope
