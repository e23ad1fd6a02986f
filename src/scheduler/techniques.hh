/**
 * @file
 * Protection techniques and the Figure-3 casuistic.
 *
 * Each scheduler field bit is repaired with one of: ALL1 / ALL0
 * (idle value pinned), ALL1-K% / ALL0-K% (idle value duty-cycled),
 * ISV (idle value = inverted sampled value), nothing (self-balanced
 * fields such as register tags), or is unprotectable (the valid
 * bit).  The casuistic selects the technique from the bit's
 * occupancy and its bias while in use, and computes the duty factor
 * K that yields ideal balancing (Section 4.5).
 */

#ifndef PENELOPE_SCHEDULER_TECHNIQUES_HH
#define PENELOPE_SCHEDULER_TECHNIQUES_HH

#include <string>

namespace penelope {

/** Per-bit repair technique. */
enum class Technique : std::uint8_t
{
    None,          ///< self-balanced, no action
    All1,          ///< idle value pinned to 1
    All0,          ///< idle value pinned to 0
    All1K,         ///< idle value 1 for K% of idle time
    All0K,         ///< idle value 0 for K% of idle time
    Isv,           ///< idle value from inverted sampled values
    Unprotectable, ///< contents always live (valid bit)
};

const char *techniqueName(Technique technique);

/** Decision for one bit. */
struct BitDecision
{
    Technique technique = Technique::None;

    /** Duty factor for the K% techniques (fraction, 0..1). */
    double k = 1.0;
};

/**
 * Figure-3 casuistic.
 *
 * @param occupancy fraction of time the bit is in live use
 * @param bias0_busy P(bit == 0) while in live use
 * @return the chosen technique and its K.
 *
 * Situations (Section 3.2): occupancy <= 50% -> ISV (situation I);
 * occupancy x bias exceeding 50% -> ALL1/ALL0, balancing infeasible
 * (situation III); otherwise ALL1-K%/ALL0-K% with K solving
 * occ*bias + (1-occ)*(1-K) = 1/2 (situation II).
 */
BitDecision chooseTechnique(double occupancy, double bias0_busy);

/**
 * Expected long-run bias towards "0" of a bit repaired with
 * @p decision (used by tests and the metric roll-up).
 */
double expectedBias(const BitDecision &decision, double occupancy,
                    double bias0_busy);

/**
 * Bresenham-style duty generator: emits 1 with average rate K
 * deterministically (used to implement ALL1-K% with a small
 * counter, as the paper's hardware sketch does).
 */
class DutyGenerator
{
  public:
    explicit DutyGenerator(double k = 1.0) : k_(k), acc_(0.0) {}

    void setK(double k) { k_ = k; }
    double k() const { return k_; }

    /** Next idle value (inline: a protected replay draws one per
     *  K% bit on every repair). */
    bool
    next()
    {
        acc_ += k_;
        if (acc_ >= 1.0 - 1e-12) {
            acc_ -= 1.0;
            return true;
        }
        return false;
    }

  private:
    double k_;
    double acc_;
};

} // namespace penelope

#endif // PENELOPE_SCHEDULER_TECHNIQUES_HH
