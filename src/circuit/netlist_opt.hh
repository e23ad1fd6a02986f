/**
 * @file
 * The optimizing netlist compiler: types shared between the Netlist
 * front-end and the pass pipeline in netlist_opt.cc.
 *
 * finalize() compiles the gate list into a flat op stream: the
 * output of four classic netlist transforms, run in one
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
 *  4. Cache-blocked scheduling -- the surviving ops are re-ordered
 *     by an operand-locality-aware depth-first topological schedule
 *     and their outputs renumbered into a dense physical word array
 *     written strictly sequentially, so a batch pass streams stores
 *     and finds its operands still L1-resident.  The physical array
 *     shrinks from one lane word per *net* to one per *surviving
 *     op*, which is what lets wide (W=4/8) batches stay cache
 *     resident.
 *
 * Because nets do not own words 1:1, every consumer resolves a
 * SignalId through a NetRef {word, kind}: the net's value is the
 * word, its complement, or a constant.  Statistics stay bit-identical
 * to the gate-by-gate form: an aliased net's resolved lane word
 * equals what the scalar interpreter Netlist::evaluate computes for
 * it, and PmosAgingTracker charges one popcount per *equivalence
 * class* of nets (aliased zero-time slots) -- the same integers in
 * the same modular arithmetic.
 *
 * There is no unoptimized mode.  The scalar gate-list interpreter
 * is the reference: tests/test_netlist_batch.cc checks every net's
 * lane word against it on random netlists, and every batched aging
 * probability on the Figure-2 circuit and all three adders.  A
 * second, 1:1 op stream only duplicated that oracle.
 */

#ifndef PENELOPE_CIRCUIT_NETLIST_OPT_HH
#define PENELOPE_CIRCUIT_NETLIST_OPT_HH

#include <cstddef>
#include <cstdint>

namespace penelope {

/**
 * One record of the compiled op stream.  All operand/output fields
 * address *physical lane words* (positions in the evaluated word
 * array), not SignalIds.  The two-input forms are specialised so the
 * evaluator loop never touches the spill array for them; wider
 * gates read their remaining fanins from the extra-fanin array.
 */
struct CompiledOp
{
    enum class Kind : std::uint8_t
    {
        Input,   ///< out = input word [a = input ordinal]
        Inv,     ///< out = ~a
        Nand2,   ///< out = ~(a & b)
        NandK,   ///< out = ~(a & b & extras...)
        NorK,    ///< out = ~(a | b | extras...)
        TgPass,  ///< out = a ^ b
        Nand2ca, ///< out = ~(~a & b) = a | ~b (fused INV on fanin a)
        Or2,     ///< out = a | b = ~(~a & ~b) (fused INV on both)
    };

    Kind kind;
    std::uint32_t out;
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

/** Per-pass op accounting of one finalize() compilation. */
struct NetlistOptStats
{
    /** Primitive gates (including inputs and constants): one op
     *  per gate before optimization. */
    std::size_t opsBaseline = 0;

    /** Ops surviving in the optimized stream (= physical words). */
    std::size_t opsFinal = 0;

    /** Gates that value-numbered to an already-materialized op. */
    std::size_t cseReused = 0;

    /** Gates folded away by constant / tied-input propagation. */
    std::size_t constFolded = 0;

    /** Inverters absorbed into aliases / consumer op variants. */
    std::size_t invFused = 0;

    /** Aliased complements demoted back to a materialized Inv op
     *  for a K-ary consumer (counted inside opsFinal). */
    std::size_t invMaterialized = 0;

    double reductionPercent() const
    {
        if (opsBaseline == 0)
            return 0.0;
        return 100.0 *
            (1.0 -
             static_cast<double>(opsFinal) /
                 static_cast<double>(opsBaseline));
    }
};

} // namespace penelope

#endif // PENELOPE_CIRCUIT_NETLIST_OPT_HH
