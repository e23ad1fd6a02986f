/**
 * @file
 * Cache inversion mechanisms (Section 3.2.1, evaluated in 4.6).
 *
 * One type, InversionMechanism, runs whichever mechanism its
 * MechanismParams::kind names; every Cache owns one (kind None for a
 * mechanism-free cache) and calls it directly:
 *  - SetFixed50 / WayFixed50: a rotating window of sets (the paper's
 *    SetFixed50%) or of ways (described by the paper, not measured;
 *    our ablation) is kept inverted; the cache effectively shrinks.
 *  - LineFixed50: INVCOUNT/INVTHRESHOLD machinery keeps a fixed
 *    fraction of individual lines inverted, picking LRU lines of
 *    random sets (the paper's LineFixed50%).
 *  - LineDynamic60: the LineFixed step plus the warmup/test/decide
 *    machinery that disables inversion for cache-hungry programs
 *    (the paper's LineDynamic60%).  Its test phase runs the same
 *    step on shadow marks instead of inversions.
 *
 * The production parameters of each kind come from mechanismParams
 * (timing.hh).
 */

#ifndef PENELOPE_CACHE_INVERSION_HH
#define PENELOPE_CACHE_INVERSION_HH

#include <cstdint>

#include "common/types.hh"

namespace penelope {

class Cache;

/** Selectable inversion mechanism for experiment configuration. */
enum class MechanismKind : std::uint8_t
{
    None,
    SetFixed50,
    WayFixed50,
    LineFixed50,
    LineDynamic60,
};

const char *mechanismName(MechanismKind kind);

/**
 * Parameters of one mechanism.  @p kind selects it; the ratio in its
 * name is the one mechanismParams gives it, and tests may set
 * another.  A field the kind does not read is left zero.
 */
struct MechanismParams
{
    MechanismKind kind = MechanismKind::None;
    double invertRatio = 0.0;

    /** Cycles between window rotations (SetFixed / WayFixed) or
     *  between LineDynamic's decisions. */
    Cycle periodCycles = 0;

    /** LineDynamic: warmup and test phase lengths. */
    Cycle warmupCycles = 0;
    Cycle testCycles = 0;

    /** LineDynamic: induced-extra-miss rate above which the
     *  mechanism stays off for the period (paper: 2%/3%/4% for
     *  32/16/8KB DL0; 0.5%/1%/2% for 128/64/32-entry DTLB). */
    double extraMissThreshold = 0.0;
};

/** The mechanism a Cache runs; it mutates the cache through the
 *  cache's public inversion manipulators. */
class InversionMechanism
{
  public:
    explicit InversionMechanism(const MechanismParams &params);

    MechanismKind kind() const { return params_.kind; }

    /** Install on @p cache at cycle 0 (the cache's constructor). */
    void attach(Cache &cache);

    /** One cycle of the mechanism (Cache::tick, kind not None). */
    void onCycle(Cache &cache, Cycle now);

    /** A hit on the shadow-marked line (@p set, @p way). */
    void onShadowHit(Cache &cache, unsigned set, unsigned way);

    /** INVTHRESHOLD: lines the line mechanisms keep inverted. */
    unsigned threshold() const { return threshold_; }

    /** LineDynamic: fraction of periods in which it stayed active. */
    double activeFraction() const;

  private:
    enum class Phase : std::uint8_t { Warmup, Test, Run };

    /** Invert everything outside the window at firstUsable_. */
    void applyWindow(Cache &cache, Cycle now);

    /** The INVCOUNT step: invert, or with @p shadow shadow-mark, the
     *  LRU line of a random set while below INVTHRESHOLD. */
    void step(Cache &cache, Cycle now, bool shadow);

    void enterPhase(Cache &cache, Phase phase);

    MechanismParams params_;
    unsigned threshold_ = 0;

    /** Cycle of the last rotation (window) or period start
     *  (LineDynamic). */
    Cycle periodStart_ = 0;
    unsigned firstUsable_ = 0;

    Phase phase_ = Phase::Warmup;
    bool active_ = false;
    std::uint64_t extraMisses_ = 0;
    std::uint64_t accessesAtTestStart_ = 0;
    unsigned decisionsActive_ = 0;
    unsigned decisionsTotal_ = 0;
};

/** The paper's DL0 thresholds by cache size (Section 4.6). */
double dl0ExtraMissThreshold(std::uint32_t size_bytes);

/** The paper's DTLB thresholds by entry count (Section 4.6). */
double dtlbExtraMissThreshold(std::uint32_t entries);

} // namespace penelope

#endif // PENELOPE_CACHE_INVERSION_HH
