/**
 * @file
 * Per-PMOS duty-cycle aging instrumentation for netlists.
 *
 * This is the logic-level stand-in for the paper's Hspice-like
 * electrical aging simulator: it accumulates zero-signal probability
 * for every PMOS device while the netlist processes input vectors,
 * and converts the result into per-device and per-block guardbands
 * through a GuardbandModel.
 *
 * Representation (word-parallel, the netlist-side sibling of the
 * bit-sliced duty machinery in common/duty.hh): every observation
 * covers every device for the same dt, so per-device total time is
 * one shared scalar; and every device gated by the same net always
 * observes the same value, so zero-time is stored once per
 * *equivalence class* of gate nets, not once per device.  Classes
 * are the canonical NetRefs of the optimizing netlist compiler:
 * nets that CSE/alias to the same (word, polarity) -- or to a
 * constant -- provably always carry equal values, so one popcount
 * serves them all.  Slots are partitioned by ref kind (plain,
 * complemented, const-0, const-1) and sorted by word index inside
 * each partition, so the batch observe loops are branch-free
 * sequential sweeps over the lane-word array.  That layout
 * (PmosSlotMap) depends only on the compiled netlist, so
 * Netlist::finalize() builds it once and every tracker on the
 * netlist reads it shared: a tracker owns only its zero-time array
 * and total time, and constructing one is a single allocation.
 * observeBatch() charges a whole 64-vector lane word in one step --
 * the zero-time of a class is popcount of its complemented lane
 * word (masked to the valid lanes) -- so a batch costs a couple of
 * word ops per *class* instead of 64 branchy updates per *device*.  Scalar
 * observe() (fed by the gate-list interpreter Netlist::evaluate)
 * and the batched forms add exactly the same integers, so every
 * probability (and everything downstream: summaries, guardbands,
 * experiment stdout) is bit-identical between them; the AgingBatch
 * suites in tests/test_netlist_batch.cc pin that on the Figure-2
 * circuit and all three adder topologies.
 */

#ifndef PENELOPE_CIRCUIT_AGING_HH
#define PENELOPE_CIRCUIT_AGING_HH

#include <cstdint>
#include <vector>

#include "nbti/guardband.hh"
#include "netlist.hh"

namespace penelope {

/** Aggregate aging summary of a combinational block. */
struct AgingSummary
{
    /** Worst zero-signal probability over narrow devices. */
    double worstNarrowZeroProb = 0.0;

    /** Worst zero-signal probability over wide devices. */
    double worstWideZeroProb = 0.0;

    /** Fraction of *all* PMOS that are narrow with 100% (or >=
     *  threshold) zero-signal probability -- the Figure-4 metric. */
    double narrowFullyStressedFraction = 0.0;

    /** Required block guardband: the max per-device guardband. */
    double guardband = 0.0;

    std::size_t numDevices = 0;
    std::size_t numNarrow = 0;
    std::size_t numWide = 0;
};

/**
 * Accumulates per-PMOS stress time for one netlist.
 */
class PmosAgingTracker
{
  public:
    /** The netlist must already be finalized.  Construction only
     *  allocates the zero-time array: the slot layout is the
     *  netlist's own, built once by finalize(). */
    explicit PmosAgingTracker(const Netlist &netlist);

    /**
     * Account @p dt time units with the given net values (as
     * produced by Netlist::evaluate).
     */
    void observe(const std::vector<std::uint8_t> &signals,
                 std::uint64_t dt = 1);

    /**
     * Account a batch of net lane words (as produced by
     * Netlist::evaluateBatch): every lane selected by @p lane_mask
     * contributes @p dt time units, exactly as one observe() per
     * valid lane would.  Lanes outside the mask (padding of a
     * partial batch) are ignored entirely.
     */
    void observeBatch(const std::uint64_t *net_words,
                      std::uint64_t lane_mask, std::uint64_t dt = 1);

    /**
     * Wide form of observeBatch() for the W-word netlist engine
     * (Netlist::evaluateBatchWide): @p net_words holds @p net_w
     * lane words per net, interleaved [net * net_w + w], and
     * @p lane_masks selects the valid lanes of each word.  Exactly
     * equivalent to net_w single-word observeBatch() calls.
     */
    void observeBatchWide(const std::uint64_t *net_words,
                          unsigned net_w,
                          const std::uint64_t *lane_masks,
                          std::uint64_t dt = 1);

    /** Evaluate and observe an input vector in one step. */
    void applyInput(const std::vector<bool> &input_values,
                    std::uint64_t dt = 1);

    /** Zero-signal probability of device @p i. */
    double zeroProb(std::size_t i) const;

    std::size_t numDevices() const { return slots_.deviceSlot.size(); }

    const Netlist &netlist() const { return netlist_; }

    /**
     * Summarise the accumulated stress.  @p fully_stressed_threshold
     * is the zero-probability above which a device counts as "100%
     * stressed" for the Figure-4 metric.
     */
    AgingSummary summarize(const GuardbandModel &model,
                           double fully_stressed_threshold =
                               0.9999) const;

    /**
     * Weighted combination with another tracker over the same
     * netlist: this tracker's duty cycle counts for @p self_weight
     * of the time, @p other for (1 - self_weight).  Used to mix
     * "real inputs while busy" with "synthetic inputs while idle".
     */
    std::vector<double>
    combinedZeroProbs(const PmosAgingTracker &other,
                      double self_weight) const;

    /** Summarise an arbitrary per-device zero-prob vector. */
    static AgingSummary
    summarizeZeroProbs(const Netlist &netlist,
                       const std::vector<double> &zero_probs,
                       const GuardbandModel &model,
                       double fully_stressed_threshold = 0.9999);

    void reset();

  private:
    const Netlist &netlist_;

    /** The netlist's shared slot layout (Netlist::pmosSlots()). */
    const PmosSlotMap &slots_;

    /** Per slot: accumulated zero-time. */
    std::vector<std::uint64_t> slotZeroTime_;

    /** Shared total observed time (identical for every device). */
    std::uint64_t totalTime_ = 0;

    std::vector<std::uint8_t> scratch_; ///< applyInput net values
};

} // namespace penelope

#endif // PENELOPE_CIRCUIT_AGING_HH
