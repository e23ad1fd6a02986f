/**
 * @file
 * The optimizing netlist compiler: types shared between the Netlist
 * front-end and the compiler in netlist_opt.cc.
 *
 * finalize() compiles the gate list into a flat op stream: the
 * output of three classic netlist transforms, run in one
 * deterministic walk:
 *
 *  1. Structural hashing / CSE -- ops with identical (kind,
 *     canonicalized fanins) collapse to one evaluation.  Commutative
 *     fanins are sorted, De Morgan duals (NAND of complements vs NOR)
 *     are canonicalized into one family, and XOR/XNOR share one
 *     node with the complement carried as output parity.
 *  2. Constant and tied-input folding -- fanins pinned to Const0/
 *     Const1 and repeated/complementary fanins specialize a gate to
 *     a cheaper op or fold it away entirely (x NAND x = !x,
 *     x NAND !x = 1, ...).
 *  3. INV fusion -- inverters never materialize: an inverter's
 *     output is an alias of its fanin with complemented polarity,
 *     and consumers absorb the complement as complemented-fanin op
 *     variants (Nand2ca, Or2) or as output parity (XOR chains).
 *     K-ary NAND/NOR consumers that cannot absorb a complemented
 *     fanin demote the alias back to one materialized Inv op,
 *     memoized per source.
 *
 * The surviving ops are emitted in node (interning) order, and op
 * i writes physical word i: the word array shrinks from one lane
 * word per *net* to one per *surviving op*, and every operand word
 * is smaller than the op that reads it, so one forward pass
 * evaluates the stream.  Node order measured no slower than the
 * operand-locality schedule it replaced (README, "The optimizing
 * netlist compiler").
 *
 * Because nets do not own words 1:1, every consumer resolves a
 * SignalId through a NetRef {word, kind}: the net's value is the
 * word, its complement, or a constant.  Statistics stay bit-identical
 * to the gate-by-gate form: an aliased net's resolved lane word
 * equals what a scalar gate-list interpreter computes for it, and
 * PmosAgingTracker charges one popcount per *equivalence class* of
 * nets (aliased zero-time slots) -- the same integers in the same
 * modular arithmetic.
 *
 * There is no unoptimized mode.  The scalar gate-list interpreter
 * of tests/netlist_reference.hh is the reference:
 * tests/test_netlist_batch.cc checks every net's lane word against
 * it on random netlists, and every batched aging probability on the
 * Figure-2 circuit and all three adders.  A second, 1:1 op stream
 * only duplicated that oracle.
 */

#ifndef PENELOPE_CIRCUIT_NETLIST_OPT_HH
#define PENELOPE_CIRCUIT_NETLIST_OPT_HH

#include <cstdint>

namespace penelope {

/**
 * One record of the compiled op stream.  Op i writes physical lane
 * word i (its position in the stream); its operand fields address
 * earlier words, not SignalIds.  The two-input forms are specialised so the
 * evaluator loop never touches the spill array for them; wider
 * gates read their remaining fanins from the extra-fanin array.
 */
struct CompiledOp
{
    enum class Kind : std::uint8_t
    {
        Input,   ///< input word [a = input ordinal]
        Inv,     ///< ~a
        Nand2,   ///< ~(a & b)
        NandK,   ///< ~(a & b & extras...)
        NorK,    ///< ~(a | b | extras...)
        TgPass,  ///< a ^ b
        Nand2ca, ///< ~(~a & b) = a | ~b (fused INV on fanin a)
        Or2,     ///< a | b = ~(~a & ~b) (fused INV on both)
    };

    Kind kind;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t extra = 0;
    std::uint32_t extraCount = 0;
};

/**
 * How a net's value is recovered from an evaluated word array:
 * directly, as a complement (INV fusion / De Morgan aliasing), or
 * as a constant (folded nets).  Resolution never costs more than
 * one load and one NOT, and the hot consumers (PmosAgingTracker)
 * pre-sort their references by kind so no per-net branch survives
 * into the observe loops.
 */
enum class NetRefKind : std::uint8_t
{
    Word,    ///< value = words[word]
    InvWord, ///< value = ~words[word]
    Const0,  ///< value = 0
    Const1,  ///< value = all-ones
};

struct NetRef
{
    std::uint32_t word = 0;
    NetRefKind kind = NetRefKind::Word;
};

} // namespace penelope

#endif // PENELOPE_CIRCUIT_NETLIST_OPT_HH
