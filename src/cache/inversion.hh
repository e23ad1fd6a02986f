/**
 * @file
 * Cache inversion mechanisms (Section 3.2.1, evaluated in 4.6).
 *
 * Four granularities/flavours:
 *  - SetFixedInversion:  a rotating window of sets is kept inverted
 *    (the paper's SetFixed50%); the cache effectively shrinks.
 *  - WayFixedInversion:  a rotating window of ways is kept inverted
 *    (described by the paper, not measured; our ablation).
 *  - LineFixedInversion: INVCOUNT/INVTHRESHOLD machinery keeps a
 *    fixed fraction of individual lines inverted, picking LRU lines
 *    of random sets (the paper's LineFixed50%).
 *  - LineDynamicInversion: LineFixed plus the warmup/test/decide
 *    machinery that disables inversion for cache-hungry programs
 *    (the paper's LineDynamic60%).
 */

#ifndef PENELOPE_CACHE_INVERSION_HH
#define PENELOPE_CACHE_INVERSION_HH

#include <cstdint>
#include <string>

#include "cache.hh"

namespace penelope {

/** Rotating inverted-set window. */
class SetFixedInversion : public InversionPolicy
{
  public:
    explicit SetFixedInversion(double invert_ratio = 0.5,
                               Cycle rotate_period = 10'000'000);

    void attach(Cache &cache, Cycle now) override;
    void onCycle(Cache &cache, Cycle now) override;
    std::string name() const override;

  private:
    void applyWindow(Cache &cache, Cycle now);

    double ratio_;
    Cycle rotatePeriod_;
    Cycle lastRotate_ = 0;
    unsigned firstUsable_ = 0;
};

/** Rotating inverted-way window. */
class WayFixedInversion : public InversionPolicy
{
  public:
    explicit WayFixedInversion(double invert_ratio = 0.5,
                               Cycle rotate_period = 10'000'000);

    void attach(Cache &cache, Cycle now) override;
    void onCycle(Cache &cache, Cycle now) override;
    std::string name() const override;

  private:
    void applyWindow(Cache &cache, Cycle now);

    double ratio_;
    Cycle rotatePeriod_;
    Cycle lastRotate_ = 0;
    unsigned firstUsable_ = 0;
};

/** INVCOUNT / INVTHRESHOLD per-line inversion. */
class LineFixedInversion : public InversionPolicy
{
  public:
    explicit LineFixedInversion(double invert_ratio = 0.5);

    void attach(Cache &cache, Cycle now) override;
    void onCycle(Cache &cache, Cycle now) override;
    std::string name() const override;

    unsigned threshold() const { return threshold_; }

  private:
    double ratio_;
    unsigned threshold_ = 0;
};

/** Parameters of the dynamic test machinery (Section 4.6). */
struct DynamicInversionParams
{
    double invertRatio = 0.6;
    Cycle warmupCycles = 200'000;
    Cycle testCycles = 200'000;
    Cycle periodCycles = 10'000'000;

    /** Induced-extra-miss-rate threshold above which the mechanism
     *  deactivates for the period (paper: 2%/3%/4% for 32/16/8KB
     *  DL0; 0.5%/1%/2% for 128/64/32-entry DTLB). */
    double extraMissThreshold = 0.02;
};

/** LineFixed + warmup/test/decide machinery. */
class LineDynamicInversion : public InversionPolicy
{
  public:
    explicit LineDynamicInversion(const DynamicInversionParams &p =
                                      DynamicInversionParams());

    void attach(Cache &cache, Cycle now) override;
    void onCycle(Cache &cache, Cycle now) override;
    void onShadowHit(Cache &cache, unsigned set, unsigned way,
                     Cycle now) override;
    std::string name() const override;
    bool active() const override { return active_; }

    /** Fraction of periods in which the mechanism stayed active. */
    double activeFraction() const;

  private:
    enum class Phase { Warmup, Test, Run };

    void enterPhase(Cache &cache, Phase phase, Cycle now);

    DynamicInversionParams params_;
    Phase phase_ = Phase::Warmup;
    Cycle periodStart_ = 0;
    bool active_ = false;
    std::uint64_t extraMisses_ = 0;
    std::uint64_t accessesAtTestStart_ = 0;
    unsigned decisionsActive_ = 0;
    unsigned decisionsTotal_ = 0;
    unsigned threshold_ = 0;
};

/** The paper's DL0 thresholds by cache size (Section 4.6). */
double dl0ExtraMissThreshold(std::uint32_t size_bytes);

/** The paper's DTLB thresholds by entry count (Section 4.6). */
double dtlbExtraMissThreshold(std::uint32_t entries);

} // namespace penelope

#endif // PENELOPE_CACHE_INVERSION_HH
