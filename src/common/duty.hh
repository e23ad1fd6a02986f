/**
 * @file
 * Duty-cycle accounting: the central instrumentation of Penelope.
 *
 * NBTI degradation of a PMOS transistor is driven by its zero-signal
 * probability: the fraction of time its gate observes logic "0".
 * DutyCycleCounter accumulates that probability for one signal;
 * BitBiasTracker does so for every bit cell of a storage structure
 * (where bias towards "0" stresses one of the two cross-coupled
 * inverters' PMOS devices).
 *
 * The per-bit accounting is *bit-sliced* (word-parallel).  The core
 * primitive is MaskedTimeAccumulator, an SoA per-bit time counter
 * of up to three 64-bit lanes:
 *
 *  - one wide `std::uint64_t` accumulator per bit, stored relative
 *    to a shared base counter;
 *  - per lane, kPlanes vertical carry-save bit-planes: plane l
 *    holds bit l of every bit's *pending* count.
 *
 * add(masks, dt) charges dt to every masked bit with a handful of
 * word operations, choosing per call between three equivalent
 * paths: a direct add per set bit (sparse masks), a complement
 * split that adds dt to the shared base and subtracts it from the
 * few clear bits (dense masks), and a ripple add of the mask into
 * the planes once per set bit of dt (dense masks with tiny dt, the
 * hot dt=1 case).  The planes are flushed into the wide
 * accumulators when another add could overflow them (pending time
 * would exceed kPlaneCap), on any read, on merge() and on reset();
 * the base folds into the accumulators on reads.  Every path does
 * exact unsigned (modular) addition of the same quantities, so the
 * totals -- and every probability derived from them -- are
 * bit-identical to the scalar per-bit form regardless of dt
 * values, path choices, flush points or merge order.
 *
 * BitBiasTracker builds on this with one shared total-time scalar
 * (every observe covers every bit for the same dt, so per-bit total
 * times are always equal) and one masked accumulator fed with the
 * observed value's ONE bits (stored values lean towards zero, so
 * the one-mask is the sparse side); per-bit zero-time is the exact
 * difference total - one.
 */

#ifndef PENELOPE_COMMON_DUTY_HH
#define PENELOPE_COMMON_DUTY_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "bitword.hh"
#include "types.hh"

namespace penelope {

/**
 * Weighted-lane representation: the batched replay drivers describe
 * up to 64 observations (lanes) at once as
 *
 *  - per tracked bit b, a *lane word*: bit v is the value of bit b
 *    in observation v (the transpose64x64 layout); and
 *  - the observations' durations transposed into *dt bit-planes*:
 *    bit v of plane l is bit l of observation v's dt.
 *
 * The total time the selected bits of lane word X spent set is then
 *
 *    weightedLaneTime(X, planes, n) =
 *        sum_l popcount(X & planes[l]) << l
 *
 * an exact (modular) integer identical to summing dt_v over the set
 * lanes one by one.  Padding lanes of a partial batch carry dt = 0,
 * appear in no plane, and so contribute nothing -- their lane-word
 * bits may be garbage.
 */
inline std::uint64_t
weightedLaneTime(std::uint64_t lane_word,
                 const std::uint64_t *dt_planes,
                 unsigned num_planes)
{
    std::uint64_t total = 0;
    for (unsigned l = 0; l < num_planes; ++l) {
        total += static_cast<std::uint64_t>(
                     std::popcount(lane_word & dt_planes[l]))
            << l;
    }
    return total;
}

/**
 * Accumulates the amount of time a single digital signal spends at
 * logic "0" vs logic "1".
 */
class DutyCycleCounter
{
  public:
    DutyCycleCounter() : zeroTime_(0), totalTime_(0) {}

    /** Counter snapshot from raw times (used by BitBiasTracker to
     *  materialise a per-bit view of its sliced accumulators). */
    DutyCycleCounter(std::uint64_t zero_time, std::uint64_t total_time)
        : zeroTime_(zero_time), totalTime_(total_time)
    {
        assert(zeroTime_ <= totalTime_);
    }

    /** Record that the signal held @p level for @p dt time units. */
    void
    observe(bool level, std::uint64_t dt = 1)
    {
        if (!level)
            zeroTime_ += dt;
        totalTime_ += dt;
    }

    /** Fraction of observed time at "0" (0.5 if never observed). */
    double zeroProbability() const;

    /** Fraction of observed time at "1". */
    double oneProbability() const { return 1.0 - zeroProbability(); }

    /**
     * Worst-case stress probability for a bit cell holding this
     * signal: the more-stressed of the two PMOS devices, i.e.\
     * max(p0, 1-p0).  Always >= 0.5.
     */
    double worstCaseStress() const;

    std::uint64_t totalTime() const { return totalTime_; }
    std::uint64_t zeroTime() const { return zeroTime_; }

    void merge(const DutyCycleCounter &other);
    void reset();

  private:
    std::uint64_t zeroTime_;
    std::uint64_t totalTime_;
};

/**
 * Word-parallel per-bit time accumulator (up to 192 bits): add()
 * charges dt time units to every bit set in the caller's packed
 * mask words.  See the file comment for the representation.
 *
 * Reads flush the pending carry-save planes first; flushing only
 * moves pending counts into the wide accumulators, so it is
 * logically const (and the plane state is mutable).
 */
class MaskedTimeAccumulator
{
  public:
    /** Maximum supported width (three 64-bit lanes). */
    static constexpr unsigned kMaxWidth = 192;

    explicit MaskedTimeAccumulator(unsigned width);

    unsigned width() const { return width_; }

    /** Add @p dt to every bit set in @p masks.  @p masks must hold
     *  one word per 64-bit lane up to the accumulator's lane count
     *  (callers with fewer lanes than three pad with zeros when
     *  unsure); mask bits beyond the width must be zero. */
    void
    add(const std::uint64_t *masks, std::uint64_t dt)
    {
        // Dispatch on the lane count once so the cost model lives
        // in a single template and the per-lane loops unroll.
        switch (lanes_) {
          case 1:
            addImpl<1>(masks, dt);
            break;
          case 2:
            addImpl<2>(masks, dt);
            break;
          default:
            addImpl<3>(masks, dt);
            break;
        }
    }

    /**
     * Single-lane fast path of add(): same exact sums, for
     * accumulators of width <= 64 (the per-field/per-structure
     * trackers, which dominate the replay kernels) without the
     * lane dispatch.
     */
    void
    add1(std::uint64_t mask, std::uint64_t dt)
    {
        assert(lanes_ == 1);
        addImpl<1>(&mask, dt);
    }

    /**
     * Add @p dt directly to one bit's counter.  The batched
     * observe path (BitBiasTracker::observeBatch) charges per-bit
     * popcounts this way: a single-bit direct add, exact like
     * every other path.
     */
    void
    addBit(unsigned bit, std::uint64_t dt)
    {
        assert(bit < width_);
        time_[bit] += dt;
    }

    /**
     * Add @p dt to *every* bit's counter at once via the shared
     * base.  Combined with subBit() this gives the batched drains
     * the same complement-split idiom the dense add() path uses:
     * charge the batch's total time to everyone, then subtract the
     * lanes that held "1" per bit.  Exact modular arithmetic, so
     * the sums match the per-event form bit for bit.
     */
    void addBase(std::uint64_t dt) { base_ += dt; }

    /** Subtract @p dt from one bit's counter (modular; pairs with
     *  addBase() in the batched complement-split drains). */
    void
    subBit(unsigned bit, std::uint64_t dt)
    {
        assert(bit < width_);
        time_[bit] -= dt;
    }

    /**
     * Charge one bit from a weighted batch of up to 64 lanes: the
     * lanes set in @p lane_word each contribute their own dt, given
     * transposed as @p dt_planes (see weightedLaneTime()).  Exactly
     * equivalent to one addBit(bit, dt_v) per set lane v.
     */
    void
    addBitWeighted(unsigned bit, std::uint64_t lane_word,
                   const std::uint64_t *dt_planes,
                   unsigned num_planes)
    {
        if (lane_word) {
            addBit(bit, weightedLaneTime(lane_word, dt_planes,
                                         num_planes));
        }
    }

    /** Accumulated time of one bit. */
    std::uint64_t time(unsigned bit) const;

    /** All per-bit times (flushed). */
    const std::vector<std::uint64_t> &times() const;

    /** Add another accumulator's per-bit times (same width). */
    void merge(const MaskedTimeAccumulator &other);

    /** Overwrite the per-bit times from a raw array of @p width()
     *  values (pending planes are discarded). */
    void loadTimes(const std::uint64_t *times);

    void reset();

  private:
    /** Vertical counter depth: pending per-bit counts live in
     *  kPlanes bit-planes, worth up to kPlaneCap time units between
     *  flushes. */
    static constexpr unsigned kPlanes = 16;
    static constexpr std::uint64_t kPlaneCap =
        (std::uint64_t(1) << kPlanes) - 1;

    /** Carry-save add of @p mask into the planes at @p level.  The
     *  flush-on-overflow discipline guarantees the carry dies
     *  before the top plane. */
    static void
    rippleAdd(std::uint64_t planes[], std::uint64_t mask,
              unsigned level)
    {
        std::uint64_t carry = mask;
        for (unsigned l = level; carry; ++l) {
            assert(l < kPlanes);
            const std::uint64_t t = planes[l];
            planes[l] = t ^ carry;
            carry &= t;
        }
    }

    /**
     * The add() cost model, instantiated per lane count.  Every
     * path adds exactly dt to exactly the masked bits' logical
     * counters, so the choice is pure cost and never changes any
     * statistic:
     *
     *  - sparse mask: one counter add per set bit;
     *  - dense mask:  complement split -- dt goes into the shared
     *    base counter and is subtracted from the few CLEAR bits
     *    (exact modular arithmetic);
     *  - dense mask, tiny dt (the hot dt=1 case): vertical
     *    carry-save planes, a couple of word ops per set bit of dt
     *    regardless of mask density.
     */
    template <unsigned Lanes>
    void
    addImpl(const std::uint64_t *masks, std::uint64_t dt)
    {
        if (dt == 0)
            return;
        unsigned set_bits = 0;
        for (unsigned lane = 0; lane < Lanes; ++lane) {
            set_bits += static_cast<unsigned>(
                std::popcount(masks[lane]));
        }
        const unsigned direct_cost =
            std::min(set_bits, width_ - set_bits);
        const unsigned dt_bits = static_cast<unsigned>(
            std::popcount(dt));
        if (dt <= kPlaneCap && 6 * dt_bits < direct_cost) {
            if (dt > kPlaneCap - planePending_)
                flushPlanes();
            planePending_ += dt;
            for (std::uint64_t rest = dt; rest; rest &= rest - 1) {
                const unsigned level = static_cast<unsigned>(
                    std::countr_zero(rest));
                for (unsigned lane = 0; lane < Lanes; ++lane)
                    rippleAdd(planes_[lane], masks[lane], level);
            }
            return;
        }
        if (2 * set_bits <= width_) {
            for (unsigned lane = 0; lane < Lanes; ++lane) {
                const unsigned base = lane * 64;
                for (std::uint64_t m = masks[lane]; m;
                     m &= m - 1) {
                    time_[base + static_cast<unsigned>(
                                     std::countr_zero(m))] += dt;
                }
            }
            return;
        }
        base_ += dt;
        for (unsigned lane = 0; lane < Lanes; ++lane) {
            const unsigned base = lane * 64;
            for (std::uint64_t m = ~masks[lane] & laneMask_[lane];
                 m; m &= m - 1) {
                time_[base + static_cast<unsigned>(
                                 std::countr_zero(m))] -= dt;
            }
        }
    }

    /** Drain the planes into the wide accumulators. */
    void flushPlanes() const;

    /** Fold pending planes and the shared base into time_ so the
     *  vector holds absolute per-bit counts. */
    void normalize() const;

    unsigned width_;
    unsigned lanes_; ///< ceil(width / 64), at most 3
    std::uint64_t laneMask_[3] = {}; ///< valid bits per lane

    /** Shared base time: a bit's logical count is base_ + time_[i]
     *  (+ pending planes), in exact modular arithmetic.  The dense
     *  path adds dt here and subtracts it from the clear bits;
     *  reads fold it back into time_ (mutable like the planes). */
    mutable std::uint64_t base_ = 0;

    /** Pending time in the planes (upper bound on any per-bit
     *  pending count); mutable so reads can flush. */
    mutable std::uint64_t planePending_ = 0;
    mutable std::uint64_t planes_[3][kPlanes] = {};
    mutable std::vector<std::uint64_t> time_; ///< per bit, rel. base_
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
    explicit BitBiasTracker(unsigned width);

    /** Tracker snapshot from raw per-bit zero-times and a shared
     *  total time (used to materialise per-field views of wider
     *  sliced accounting, e.g.\ the scheduler's slot layout). */
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
        if (width_ <= 64) {
            one_.add1(value.lo() & maskLo_, dt);
        } else {
            const std::uint64_t ones[3] = {value.lo() & maskLo_,
                                           value.hi() & maskHi_, 0};
            one_.add(ones, dt);
        }
        totalTime_ += dt;
    }

    /** Record a plain 64-bit value held for @p dt cycles (bits at
     *  64 and above, if any, count as zero). */
    void
    observe(Word value, std::uint64_t dt = 1)
    {
        if (width_ <= 64) {
            one_.add1(value & maskLo_, dt);
        } else {
            const std::uint64_t ones[3] = {value & maskLo_, 0, 0};
            one_.add(ones, dt);
        }
        totalTime_ += dt;
    }

    /**
     * Record 64 values at once, transposed into per-bit lane
     * words: bit v of @p bit_words[b] is bit b of value v -- the
     * same lane-word layout Netlist::evaluateBatch produces and
     * transpose64x64 packs.  Every lane (value) selected by
     * @p lane_mask contributes @p dt cycles, exactly as one
     * observe() per selected value would; padding lanes of a
     * partial batch are ignored entirely.  @p bit_words must hold
     * width() words.
     *
     * Cost is one popcount per *bit* instead of one sliced add per
     * *value*; both add exactly the same integers, so every
     * derived statistic is bit-identical to the scalar path (the
     * observeBatch contract of PmosAgingTracker, kept here too).
     */
    void observeBatch(const std::uint64_t *bit_words,
                      std::uint64_t lane_mask,
                      std::uint64_t dt = 1);

    /**
     * Weighted form of observeBatch(): each lane carries its own
     * duration, transposed into @p dt_planes bit-planes (bit v of
     * plane l is bit l of lane v's dt -- the weighted-lane
     * representation described at the top of this file).  Lanes
     * with dt = 0 (padding of a partial batch) contribute nothing;
     * their bits in @p bit_words may be garbage.  Exactly
     * equivalent to one observe(value_v, dt_v) per lane.
     */
    void observeBatchWeighted(const std::uint64_t *bit_words,
                              const std::uint64_t *dt_planes,
                              unsigned num_planes);

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

    /** Snapshot of one bit's counter.  Returned by value: the
     *  sliced representation stores no per-bit counter objects. */
    DutyCycleCounter counter(unsigned bit) const;

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
