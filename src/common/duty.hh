/**
 * @file
 * Duty-cycle accounting: the central instrumentation of Penelope.
 *
 * NBTI degradation of a PMOS transistor is driven by its zero-signal
 * probability: the fraction of time its gate observes logic "0".
 * BitBiasTracker accumulates that probability for every bit cell of
 * a storage structure (where bias towards "0" stresses one of the
 * two cross-coupled inverters' PMOS devices).
 *
 * The per-bit accounting is word-parallel.  The core primitive is
 * MaskedTimeAccumulator, a per-bit time counter of up to three
 * 64-bit lanes: add(masks, dt) charges dt to every masked bit with
 * one counter add per set bit, found by count-trailing-zeros.  That
 * is its only strategy.  A per-call cost model that also chose a
 * complement split through a shared base counter or vertical
 * carry-save bit-planes measured slower on the replay mix
 * (BM_BitBiasObserve/32,64,80: 27/57/107 ns per observe with it,
 * 16/32/40 ns without, medians on a 4-core Xeon): stored values lean
 * towards zero, so the masks the trackers charge are sparse.  Every
 * add is exact unsigned (modular) arithmetic, so the totals -- and
 * every probability derived from them -- do not depend on call
 * order or merge order.
 *
 * BitBiasTracker builds on this with one shared total-time scalar
 * (every observe covers every bit for the same dt, so per-bit total
 * times are always equal) and one masked accumulator fed with the
 * observed value's ONE bits (the sparse side); per-bit zero-time is
 * the exact difference total - one.
 */

#ifndef PENELOPE_COMMON_DUTY_HH
#define PENELOPE_COMMON_DUTY_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "bitword.hh"
#include "types.hh"

namespace penelope {

/**
 * Word-parallel per-bit time accumulator (up to 192 bits): add()
 * charges dt time units to every bit set in the caller's packed
 * mask words.  See the file comment for the representation.
 */
class MaskedTimeAccumulator
{
  public:
    /** Maximum supported width (three 64-bit lanes). */
    static constexpr unsigned kMaxWidth = 192;

    explicit MaskedTimeAccumulator(unsigned width);

    unsigned width() const { return width_; }

    /** Add @p dt to every bit set in @p masks.  @p masks must hold
     *  one word per 64-bit lane up to the accumulator's lane count;
     *  mask bits beyond the width must be zero. */
    void
    add(const std::uint64_t *masks, std::uint64_t dt)
    {
        // Dispatch on the lane count once so the per-lane loops
        // unroll (a runtime lane loop measured ~20% slower at
        // width 80).
        switch (lanes_) {
          case 1:
            addLanes<1>(masks, dt);
            break;
          case 2:
            addLanes<2>(masks, dt);
            break;
          default:
            addLanes<3>(masks, dt);
            break;
        }
    }

    /** Add @p dt to one bit's counter (the batched scheduler drain
     *  and BitBiasTracker::observeBatch charge per-bit sums this
     *  way). */
    void
    addBit(unsigned bit, std::uint64_t dt)
    {
        assert(bit < width_);
        time_[bit] += dt;
    }

    /** Accumulated time of one bit. */
    std::uint64_t time(unsigned bit) const { return time_.at(bit); }

    /** All per-bit times. */
    const std::vector<std::uint64_t> &times() const { return time_; }

    /** Add another accumulator's per-bit times (same width). */
    void merge(const MaskedTimeAccumulator &other);

    /** Overwrite the per-bit times from a raw array of @p width()
     *  values. */
    void loadTimes(const std::uint64_t *times);

    void reset();

  private:
    /** add() at a fixed lane count: one counter add per set bit. */
    template <unsigned Lanes>
    void
    addLanes(const std::uint64_t *masks, std::uint64_t dt)
    {
        for (unsigned lane = 0; lane < Lanes; ++lane) {
            std::uint64_t *time = time_.data() + lane * 64;
            for (std::uint64_t m = masks[lane]; m; m &= m - 1)
                time[std::countr_zero(m)] += dt;
        }
    }

    unsigned width_;
    unsigned lanes_; ///< ceil(width / 64), at most 3
    std::vector<std::uint64_t> time_; ///< per bit
};

/**
 * Tracks per-bit "0" bias for a multi-bit storage field
 * (word-parallel; see the file comment for the representation).
 *
 * The tracker is time-weighted: call observe() with the currently
 * stored value and the number of cycles it has been held.
 */
class BitBiasTracker
{
  public:
    /** Maximum supported width (two 64-bit lanes: BitWord's). */
    static constexpr unsigned kMaxWidth = 128;

    explicit BitBiasTracker(unsigned width);

    /** Tracker snapshot from raw per-bit zero-times and a shared
     *  total time, exact modulo 2^64 (used to materialise per-field
     *  views of wider sliced accounting, e.g.\ the scheduler's slot
     *  layout). */
    static BitBiasTracker fromTimes(unsigned width,
                                    const std::uint64_t *zero_times,
                                    std::uint64_t total_time);

    unsigned width() const { return width_; }

    /** Record @p value held for @p dt cycles.  Internally the
     *  tracker accumulates per-bit *one*-time (stored values are
     *  biased towards 0, so the one-mask is the sparse one) and a
     *  shared total; zero-time is the exact difference. */
    void
    observe(const BitWord &value, std::uint64_t dt = 1)
    {
        assert(value.width() >= width_);
        const std::uint64_t ones[2] = {value.lo() & maskLo_,
                                       value.hi() & maskHi_};
        one_.add(ones, dt);
        totalTime_ += dt;
    }

    /** Record a plain 64-bit value held for @p dt cycles (bits at
     *  64 and above, if any, count as zero). */
    void
    observe(Word value, std::uint64_t dt = 1)
    {
        const std::uint64_t ones[2] = {value & maskLo_, 0};
        one_.add(ones, dt);
        totalTime_ += dt;
    }

    /**
     * Record 64 values at once, transposed into per-bit lane
     * words: bit v of @p bit_words[b] is bit b of value v -- the
     * same lane-word layout Netlist::evaluateBatch produces and
     * transpose64x64 packs.  Every lane (value)
     * selected by @p lane_mask contributes @p dt cycles, exactly
     * as one observe() per selected value would; padding lanes of
     * a partial batch are ignored entirely.  @p bit_words must
     * hold width() words.
     *
     * Cost is one popcount per *bit* instead of one sliced add per
     * *value*; both add exactly the same integers, so every
     * derived statistic is bit-identical to the scalar path (the
     * observeBatch contract of PmosAgingTracker, kept here too).
     */
    void observeBatch(const std::uint64_t *bit_words,
                      std::uint64_t lane_mask,
                      std::uint64_t dt = 1);

    /** Per-bit zero probability. */
    double zeroProbability(unsigned bit) const;

    /** Per-bit worst-case stress (max of p0, 1-p0). */
    double worstCaseStress(unsigned bit) const;

    /** Highest zero probability over all bits. */
    double maxZeroProbability() const;

    /** Lowest zero probability over all bits. */
    double minZeroProbability() const;

    /** Highest worst-case stress over all bits (>= 0.5). */
    double maxWorstCaseStress() const;

    /** All per-bit zero probabilities, LSB first. */
    std::vector<double> biasVector() const;

    /** Total observed time (identical for every bit). */
    std::uint64_t totalTime() const { return totalTime_; }

    /** Accumulated zero-time of one bit. */
    std::uint64_t zeroTime(unsigned bit) const;

    void merge(const BitBiasTracker &other);
    void reset();

  private:
    /** Zero probability of a bit with @p one_time accumulated
     *  one-time (zero-time is the exact integer difference). */
    double probability(std::uint64_t one_time) const;

    unsigned width_;
    std::uint64_t maskLo_;
    std::uint64_t maskHi_;
    std::uint64_t totalTime_ = 0;
    MaskedTimeAccumulator one_;
};

} // namespace penelope

#endif // PENELOPE_COMMON_DUTY_HH
