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
 * Materialization then runs a depth-first post-order walk from the
 * unconsumed (root) nodes and emits one CompiledOp per node in that
 * order, assigning output words sequentially -- the cache-blocked
 * schedule: an op's operands were emitted moments before it, so a
 * batch pass writes a strictly sequential store stream whose
 * operands are still in L1 (wordCount * 8 bytes of live data
 * instead of numSignals * 8).  K-ary fanins
 * that need a complement materialize one memoized Inv op right
 * before their first consumer.
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
    NetlistOptStats *stats = nullptr;

    std::uint32_t intern(std::vector<std::uint64_t> key, Node n)
    {
        const auto next = static_cast<std::uint32_t>(nodes.size());
        auto [it, inserted] = memo.try_emplace(std::move(key), next);
        if (!inserted) {
            ++stats->cseReused;
            return it->second;
        }
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
                    ++stats->constFolded;
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
                ++stats->constFolded;
                return constLit(true);
            }
        }
        if (real.empty()) {
            // Every fanin was constant 1: NAND of all-ones is 0.
            ++stats->constFolded;
            return constLit(false);
        }
        if (real.size() == 1) {
            // NAND(x) degenerates to an inverter: pure alias.
            ++stats->constFolded;
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
        if (isConst(la) && isConst(lb)) {
            ++stats->constFolded;
            return constLit(constVal(la) != constVal(lb));
        }
        if (isConst(la))
            std::swap(la, lb);
        if (isConst(lb)) {
            // x XOR const is x or ~x: pure alias.
            ++stats->constFolded;
            return {la.node, la.inv != constVal(lb)};
        }
        if (la.node == lb.node) {
            // x XOR x = 0, x XOR ~x = 1.
            ++stats->constFolded;
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

unsigned
faninCount(const Node &n)
{
    switch (n.kind) {
      case Node::Kind::Input:
        return 0;
      case Node::Kind::And2:
      case Node::Kind::Xor2:
        return 2;
      default:
        return static_cast<unsigned>(n.lits.size());
    }
}

std::uint32_t
faninAt(const Node &n, unsigned i)
{
    if (n.kind == Node::Kind::And2 || n.kind == Node::Kind::Xor2)
        return i == 0 ? n.a.node : n.b.node;
    return n.lits[i].node;
}

} // namespace

void
Netlist::compile()
{
    assert(ops_.empty() &&
           "compiled op stream must be built exactly once");
    optStats_ = {};
    optStats_.opsBaseline = gates_.size();

    // ---- Fold every gate to a literal (CSE + folding + INV
    // ---- fusion happen here, before anything materializes).
    Builder b;
    b.stats = &optStats_;
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
            ++optStats_.constFolded;
            break;
          case GateType::Const1:
            lits[g.output] = constLit(true);
            ++optStats_.constFolded;
            break;
          case GateType::Inv: {
            const Lit l = lits[g.inputs[0]];
            lits[g.output] = ~l;
            if (isConst(l))
                ++optStats_.constFolded;
            else
                ++optStats_.invFused;
            break;
          }
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

    // ---- Cache-blocked schedule: depth-first post-order from the
    // ---- root (unconsumed) nodes.  Node fanins always have
    // ---- smaller indices, so the walk is cycle-free and every
    // ---- node lands after all of its operands.
    std::vector<std::uint8_t> consumed(b.nodes.size(), 0);
    for (const Node &n : b.nodes)
        for (unsigned i = 0; i < faninCount(n); ++i)
            consumed[faninAt(n, i)] = 1;

    std::vector<std::uint8_t> done(b.nodes.size(), 0);
    std::vector<std::uint32_t> order;
    order.reserve(b.nodes.size());
    std::vector<std::pair<std::uint32_t, unsigned>> stack;
    for (std::uint32_t r = 0; r < b.nodes.size(); ++r) {
        if (consumed[r] || done[r])
            continue;
        stack.push_back({r, 0});
        while (!stack.empty()) {
            auto &top = stack.back();
            const Node &n = b.nodes[top.first];
            if (top.second < faninCount(n)) {
                const std::uint32_t f = faninAt(n, top.second);
                ++top.second;
                if (!done[f])
                    stack.push_back({f, 0});
            } else {
                done[top.first] = 1;
                order.push_back(top.first);
                stack.pop_back();
            }
        }
    }

    // ---- Emission: one op per node in schedule order, output
    // ---- words assigned sequentially.  K-ary complemented fanins
    // ---- demote to a memoized Inv op right before their first
    // ---- consumer.
    ops_.clear();
    ops_.reserve(order.size());
    extraFanins_.clear();
    std::vector<std::uint32_t> nodeWord(b.nodes.size(), kNoWord);
    std::vector<std::uint32_t> invWord(b.nodes.size(), kNoWord);
    std::uint32_t pos = 0;
    auto demote = [&](std::uint32_t m) {
        if (invWord[m] != kNoWord)
            return invWord[m];
        CompiledOp op;
        op.kind = CompiledOp::Kind::Inv;
        op.a = nodeWord[m];
        op.out = pos++;
        ops_.push_back(op);
        ++optStats_.invMaterialized;
        return invWord[m] = op.out;
    };
    auto wordOf = [&](Lit l) {
        return l.inv ? demote(l.node) : nodeWord[l.node];
    };
    std::vector<std::uint32_t> ws;
    for (const std::uint32_t ni : order) {
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
        op.out = pos++;
        nodeWord[ni] = op.out;
        ops_.push_back(op);
    }

    wordCount_ = pos;
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

    optStats_.opsFinal = ops_.size();
}

} // namespace penelope
