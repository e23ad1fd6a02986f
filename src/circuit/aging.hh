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
 * word ops per *class* instead of 64 branchy updates per *device*.
 * The sums are integers, so every probability (and everything
 * downstream: summaries, guardbands, experiment stdout) is
 * independent of how the vectors are batched; the AgingBatch suites
 * in tests/test_netlist_batch.cc hold the tracker to a per-device
 * scalar reference (tests/netlist_reference.hh) on the Figure-2
 * circuit and all three adder topologies.
 */

#ifndef PENELOPE_CIRCUIT_AGING_HH
#define PENELOPE_CIRCUIT_AGING_HH

#include <cstdint>
#include <vector>

#include "nbti/guardband.hh"
#include "netlist.hh"

namespace penelope {

/** Zero-signal probability from which a device counts as "100%
 *  stressed" (the Figure-4 metric and the wearout attack's). */
constexpr double kFullyStressedZeroProb = 0.9999;

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
     * Account a batch of net lane words (as produced by
     * Netlist::evaluateBatch): @p net_words holds one lane word per
     * physical word of the compiled stream, and @p lane_mask
     * selects the valid lanes.  Every selected lane contributes
     * @p dt time units; lanes outside the mask (padding of a
     * partial batch) are ignored entirely.
     */
    void observeBatch(const std::uint64_t *net_words,
                      std::uint64_t lane_mask, std::uint64_t dt = 1);

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
                               kFullyStressedZeroProb) const;

    /** Summarise an arbitrary per-device zero-prob vector. */
    static AgingSummary
    summarizeZeroProbs(const Netlist &netlist,
                       const std::vector<double> &zero_probs,
                       const GuardbandModel &model,
                       double fully_stressed_threshold =
                           kFullyStressedZeroProb);

    void reset();

  private:
    const Netlist &netlist_;

    /** The netlist's shared slot layout (Netlist::pmosSlots()). */
    const PmosSlotMap &slots_;

    /** Per slot: accumulated zero-time. */
    std::vector<std::uint64_t> slotZeroTime_;

    /** Shared total observed time (identical for every device). */
    std::uint64_t totalTime_ = 0;
};

} // namespace penelope

#endif // PENELOPE_CIRCUIT_AGING_HH
