/**
 * @file
 * Gate-level netlist with static-CMOS PMOS extraction.
 *
 * The combinational-block experiments (Sections 3.1 and 4.3) need
 * per-PMOS-transistor zero-signal probabilities.  A netlist is built
 * from inverting CMOS primitives (INV / NAND / NOR); convenience
 * builders compose AND, OR, XOR, XNOR and MUX from them the way a
 * standard-cell library would.  Every primitive gate contributes one
 * PMOS device per input, whose gate terminal is tied to that input
 * signal; a PMOS is under NBTI stress exactly when its input signal
 * is "0".
 *
 * Width classes: gates that drive many consumers are implemented
 * with upsized (wide) devices.  Wide PMOS degrade far less under the
 * same stress (Section 4.3 / Xuan [19]), which the aging analysis
 * accounts for.
 *
 * Word-parallel evaluation: finalize() also compiles the gate list
 * into a flat op stream (one fixed-size record per surviving op --
 * op kind, fanin word slots, output word slot -- with the common
 * arities specialised, so the evaluator is a single switch over a
 * contiguous array with no per-gate heap indirection and no
 * `vector<bool>` proxy objects).  The stream is built by the
 * optimizing compiler of netlist_opt.{hh,cc} (CSE,
 * constant folding, INV fusion, cache-blocked scheduling), which
 * shrinks it well below one op per gate; ops therefore address
 * *physical lane words*, and a net's value is recovered through its
 * NetRef (ref() / laneWord()).  evaluateBatch() is the one
 * evaluator: it runs the stream over 64 input vectors at once, and
 * every lane word is one `uint64_t` whose bit v is the producing
 * op's value under input vector v.  Lane words are exact: bit v of
 * every net's resolved word is that net's logic value under vector
 * v, which is what keeps the aging statistics independent of how
 * the vectors are batched.  The tests hold the stream to a scalar
 * gate-list interpreter (tests/netlist_reference.hh).
 */

#ifndef PENELOPE_CIRCUIT_NETLIST_HH
#define PENELOPE_CIRCUIT_NETLIST_HH

#include <cstdint>
#include <vector>

#include "circuit/netlist_opt.hh"
#include "nbti/guardband.hh"

namespace penelope {

/** Index of a signal (net) in the netlist. */
using SignalId = std::uint32_t;

inline constexpr SignalId invalidSignal = ~SignalId(0);

/** CMOS primitive gate types. */
enum class GateType : std::uint8_t
{
    Input,  ///< primary input (no transistors)
    Const0, ///< tie-low (no transistors)
    Const1, ///< tie-high (no transistors)
    Inv,    ///< inverter: 1 PMOS
    Nand,   ///< k-input NAND: k parallel PMOS
    Nor,    ///< k-input NOR: k series (stacked) PMOS
    TgPass, ///< transmission-gate pair of a TG-XOR: 2 PMOS gated
            ///< by the select and its complement; logic value is
            ///< input[0] XOR input[1] (see addTgXor)
};

/** One PMOS device extracted from the netlist. */
struct PmosDevice
{
    /** Signal tied to the device's gate terminal. */
    SignalId gateSignal;

    /** Owning gate index. */
    std::uint32_t gateIndex;

    /** Device sizing class. */
    WidthClass width;
};

/**
 * Stress-slot layout of a netlist's PMOS devices, built once by
 * Netlist::finalize() and shared read-only by every
 * PmosAgingTracker on that netlist.  Devices whose gate nets
 * resolve to the same canonical NetRef share one slot: equal refs
 * mean provably equal values under every input (CSE/aliasing of the
 * optimizing compiler, or simple net sharing).  Slots are
 * partitioned by ref kind and sorted by word index inside each
 * partition, so the batch observe loops sweep the word array in
 * order with no per-slot branching.
 */
struct PmosSlotMap
{
    /** Per device: its slot. */
    std::vector<std::uint32_t> deviceSlot;

    /** Per slot: the physical lane word it reads (plain and
     *  complemented partitions only; 0 for constants). */
    std::vector<std::uint32_t> slotWord;

    /** Partition ends: slots [0, wordEnd) read their word directly,
     *  [wordEnd, invEnd) read its complement, [invEnd, const0End)
     *  are constant-0 (always stressed), and the rest constant-1
     *  (never stressed). */
    std::size_t wordEnd = 0;
    std::size_t invEnd = 0;
    std::size_t const0End = 0;

    std::size_t numSlots() const { return slotWord.size(); }

    bool operator==(const PmosSlotMap &) const = default;
};

/**
 * A combinational netlist.  Gates must be created in topological
 * order (inputs before consumers), which the builder API enforces
 * naturally because operands are SignalIds of existing nets.
 */
class Netlist
{
  public:
    struct Gate
    {
        GateType type;
        std::vector<SignalId> inputs;
        SignalId output;
        WidthClass width = WidthClass::Narrow;
    };

    Netlist() = default;

    /** @name Primitive builders */
    /// @{
    SignalId addInput();
    SignalId addConst(bool value);
    SignalId addInv(SignalId a);
    SignalId addNand(const std::vector<SignalId> &inputs);
    SignalId addNor(const std::vector<SignalId> &inputs);
    /// @}

    /** @name Composite builders (standard-cell decompositions) */
    /// @{
    SignalId addBuf(SignalId a);              ///< 2 inverters
    SignalId addAnd(SignalId a, SignalId b);  ///< NAND + INV
    SignalId addOr(SignalId a, SignalId b);   ///< NOR + INV
    SignalId addXor(SignalId a, SignalId b);  ///< 4 NAND
    SignalId addXnor(SignalId a, SignalId b); ///< XOR + INV
    /** 2:1 mux: out = sel ? a : b (NAND-based). */
    SignalId addMux(SignalId sel, SignalId a, SignalId b);

    /**
     * Transmission-gate XOR, the standard datapath XOR cell: two
     * input inverters plus a TG pair steered by a / !a.  4 PMOS
     * total, each gated by a primary operand or its complement, so
     * alternating operands leave no device fully stressed.
     */
    SignalId addTgXor(SignalId a, SignalId b);
    /// @}

    /**
     * Force the producing gate of @p s (and, for composite cells,
     * the cell's internal gates if marked individually) into the
     * wide class at finalize() time.  Used for carry-merge gates
     * that a real layout upsizes regardless of fanout.
     */
    void markWide(SignalId s);

    std::size_t numSignals() const { return producers_.size(); }
    std::size_t numGates() const { return gates_.size(); }
    std::size_t numInputs() const { return inputs_.size(); }

    const Gate &gate(std::size_t i) const { return gates_.at(i); }
    const std::vector<SignalId> &inputs() const { return inputs_; }

    /**
     * Evaluate 64 input vectors at once (valid after finalize()).
     * @p input_words holds one lane word per primary input, in
     * creation order: bit v of word i is input i's value under
     * vector v.  @p net_words is resized to wordCount() -- the
     * physical word array of the compiled op stream, NOT one word
     * per net.  Use laneWord() to read a net's lanes.  Unused lanes
     * cost nothing extra and carry whatever the padded input bits
     * imply; consumers mask them out (see
     * PmosAgingTracker::observeBatch).
     */
    void evaluateBatch(const std::uint64_t *input_words,
                       std::vector<std::uint64_t> &net_words) const;

    /** Lane words per pass: always 1.  Kept, with the word-count
     *  parameter of Adder::evaluateBatchWide, only because the
     *  repository benchmark's netlist probe (perfbench/probes.cc)
     *  compiles against both; they go with the next change to that
     *  benchmark. */
    static unsigned preferredBatchWords() { return 1; }

    /**
     * Finalise the netlist: derive fanout counts, assign width
     * classes (gates with output fanout >= @p wide_fanout become
     * wide), extract the PMOS device list, compile the op stream
     * and group the devices into stress slots (pmosSlots()).  Must
     * be called before pmosDevices(); idempotent --
     * a second call is a no-op (same fanout threshold or not), so
     * wrappers can finalize defensively without double-extracting
     * devices or recompiling the stream.
     */
    void finalize(unsigned wide_fanout = 4);

    /** Extracted PMOS devices (valid after finalize()). */
    const std::vector<PmosDevice> &pmosDevices() const;

    /** Total PMOS count (valid after finalize()). */
    std::size_t numPmos() const { return pmos_.size(); }

    /** PMOS stress-slot layout (valid after finalize()). */
    const PmosSlotMap &pmosSlots() const;

    /** Fanout (number of gate inputs fed) of a signal. */
    unsigned fanout(SignalId s) const { return fanout_.at(s); }

    /** Logic depth in primitive gates (valid after finalize()). */
    unsigned depth() const { return depth_; }

    /** @name Compiled-stream introspection (valid after finalize()) */
    /// @{

    /** Physical lane words per batch pass (= surviving ops). */
    std::size_t wordCount() const { return wordCount_; }

    /** Length of the compiled op stream. */
    std::size_t numCompiledOps() const { return ops_.size(); }

    /** Per-pass op accounting of the last compilation. */
    const NetlistOptStats &optStats() const { return optStats_; }

    /** How net @p s reads out of an evaluated word array. */
    NetRef ref(SignalId s) const { return refs_[s]; }

    /** Net @p s's lane word from an evaluateBatch() result. */
    std::uint64_t laneWord(const std::uint64_t *net_words,
                           SignalId s) const
    {
        const NetRef r = refs_[s];
        switch (r.kind) {
          case NetRefKind::Word:
            return net_words[r.word];
          case NetRefKind::InvWord:
            return ~net_words[r.word];
          case NetRefKind::Const0:
            return 0;
          default:
            return ~std::uint64_t(0);
        }
    }
    /// @}

  private:
    SignalId newSignal(std::uint32_t producer_gate);

    /** Build ops_/extraFanins_/refs_ from gates_ with the
     *  optimizing pipeline (netlist_opt.cc). */
    void compile();

    /** Group pmos_ into pmosSlots_ by canonical NetRef (after
     *  compile()). */
    void buildPmosSlots();

    std::vector<Gate> gates_;
    std::vector<CompiledOp> ops_;
    std::vector<std::uint32_t> extraFanins_;
    /** Per-net readout of the physical word array. */
    std::vector<NetRef> refs_;
    /** PMOS devices grouped by refs_ (see PmosSlotMap). */
    PmosSlotMap pmosSlots_;
    /** Producing gate index for each signal. */
    std::vector<std::uint32_t> producers_;
    std::vector<SignalId> inputs_;
    std::vector<unsigned> fanout_;
    std::vector<PmosDevice> pmos_;
    std::vector<std::uint32_t> forcedWide_;
    std::uint32_t wordCount_ = 0;
    NetlistOptStats optStats_;
    unsigned depth_ = 0;
    bool finalized_ = false;
};

/**
 * Builds the example circuit of the paper's Figure 2:
 * D = NOT(NOR(NAND(A, B), C)); the output inverter's PMOS observes D.
 * Returns the output signal; inputs are created as A, B, C.
 */
SignalId buildFigure2Circuit(Netlist &netlist);

} // namespace penelope

#endif // PENELOPE_CIRCUIT_NETLIST_HH
