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
 * NetRef (ref() / laneWordWide()).  evaluateBatchWide() runs the
 * stream over 64 input vectors per lane word at once: every lane
 * word is one `uint64_t` whose bit v is the producing op's value
 * under input vector v.
 * Lane words are exact: bit v of every net's resolved word equals
 * what a scalar evaluate() of vector v would produce, which is what
 * keeps the batched aging statistics bit-identical to the scalar
 * ones.  evaluate() interprets the gate list directly and is the
 * reference the batched engine is tested against.
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

    /** Per slot: a representative gate net (for the scalar path)
     *  and the physical lane word it reads (plain/complemented
     *  partitions only; 0 for constants). */
    std::vector<SignalId> slotNet;
    std::vector<std::uint32_t> slotWord;

    /** Partition ends: slots [0, wordEnd) read their word directly,
     *  [wordEnd, invEnd) read its complement, [invEnd, const0End)
     *  are constant-0 (always stressed), and the rest constant-1
     *  (never stressed). */
    std::size_t wordEnd = 0;
    std::size_t invEnd = 0;
    std::size_t const0End = 0;

    std::size_t numSlots() const { return slotNet.size(); }

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
     * Evaluate the netlist.  @p input_values must supply one value
     * per primary input, in creation order.  @p signals is resized
     * to numSignals() and receives every net's value.  (The scalar
     * path interprets the gate list directly; it never goes through
     * the compiled op stream, so it is also the oracle the batched
     * paths are tested against.)
     */
    void evaluate(const std::vector<bool> &input_values,
                  std::vector<std::uint8_t> &signals) const;

    /**
     * Evaluate up to 64 * @p net_w input vectors at once (valid
     * after finalize()).  @p input_words holds @p net_w lane words
     * per primary input, in creation order, interleaved
     * [input * net_w + w]: bit v of word w of input i is input i's
     * value under vector w * 64 + v.  @p net_words is resized to
     * wordCount() * net_w with the same interleaving -- the
     * physical word array of the compiled op stream, NOT one word
     * per net.  Use laneWordWide() to read a net's lanes: each bit
     * is exactly what evaluate() of that vector would leave in
     * signals[s].  The width only changes how many lanes one
     * op-stream pass covers, never any lane's value.  Unused lanes
     * cost nothing extra and carry whatever the padded input bits
     * imply; consumers mask them out (see
     * PmosAgingTracker::observeBatchWide).  @p net_w must be 1 or
     * preferredBatchWords().
     */
    void evaluateBatchWide(const std::uint64_t *input_words,
                           std::vector<std::uint64_t> &net_words,
                           unsigned net_w) const;

    /** The evaluateBatchWide word count the batch feeders use: 4,
     *  which amortises the op-stream decode over 256 lanes.  It was
     *  chosen over 8 when both widths had SIMD kernels
     *  (BENCH_perf.json, BM_NetlistEvaluateBatchWide: W = 4 at
     *  51.1M vectors/s, W = 8 at 46.2M, and W = 8 clamped back to
     *  4 once a lane-word array outgrew L1).  No caller uses W = 8
     *  on the portable kernel, so it is not built. */
    static unsigned preferredBatchWords();

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

    /** Net @p s's w-th lane word from an evaluateBatchWide()
     *  result computed at width @p net_w. */
    std::uint64_t laneWordWide(const std::uint64_t *net_words,
                               unsigned net_w, unsigned w,
                               SignalId s) const
    {
        const NetRef r = refs_[s];
        const std::size_t at = std::size_t(r.word) * net_w + w;
        switch (r.kind) {
          case NetRefKind::Word:
            return net_words[at];
          case NetRefKind::InvWord:
            return ~net_words[at];
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

    /** Portable W-word op-stream pass (W lane words per net). */
    template <unsigned W>
    void evaluateBatchImpl(const std::uint64_t *input_words,
                           std::uint64_t *net_words) const;

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
