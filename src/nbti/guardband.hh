/**
 * @file
 * Zero-signal probability to cycle-time guardband mapping.
 *
 * The paper never publishes its electrical-level transfer function,
 * but every guardband it reports is consistent with a single linear
 * calibration (which this class therefore adopts as
 * `paperCalibrated()`):
 *
 *     G(p) = 2% + 36% * (p - 0.5)      for p >= 0.5
 *
 * Anchors reproduced exactly: G(0.5)  = 2%   (perfect balancing),
 * G(0.545) = 3.6% (FP register file),  G(0.632) = 6.7% (scheduler),
 * G(0.605) = 5.8% / G(0.65) = 7.4% (adder at 21%/30% utilisation),
 * G(1.0)  = 20%  (unprotected worst case).
 */

#ifndef PENELOPE_NBTI_GUARDBAND_HH
#define PENELOPE_NBTI_GUARDBAND_HH

namespace penelope {

/** Width class of a PMOS transistor (Section 4.3). */
enum class WidthClass
{
    Narrow, ///< minimum-width device, full NBTI sensitivity
    Wide,   ///< upsized device; degrades much less (Xuan [19])
};

/**
 * Maps worst-case zero-signal probability to the required cycle-time
 * guardband fraction.
 */
class GuardbandModel
{
  public:
    /**
     * @param guardband_at_balanced guardband at p = 0.5
     * @param guardband_at_worst guardband at p = 1.0
     * @param wide_attenuation multiplicative guardband factor for
     *        wide transistors; the default keeps a wide device at
     *        100% zero-signal probability below a narrow one at 50%,
     *        as the paper's electrical simulations report.
     */
    GuardbandModel(double guardband_at_balanced = 0.02,
                   double guardband_at_worst = 0.20,
                   double wide_attenuation = 0.6);

    /** The calibration used throughout the paper. */
    static GuardbandModel paperCalibrated();

    /**
     * Guardband for a single PMOS transistor whose gate sees "0"
     * with probability @p p.  Below 0.5 the guardband ramps linearly
     * to zero (a device that is never stressed needs no margin).
     */
    double guardbandForZeroProb(double p,
                                WidthClass width =
                                    WidthClass::Narrow) const;

    /**
     * Guardband for a storage bit cell whose stored value is "0"
     * with probability @p bias0.  The cell's two cross-coupled
     * inverters stress complementary PMOS devices, so the effective
     * probability is max(bias0, 1 - bias0).
     */
    double guardbandForCellBias(double bias0) const;

    /** Guardband of a perfectly balanced (p = 0.5) device. */
    double balancedGuardband() const { return gBalanced_; }

    /**
     * Guardband-reduction factor vs the unprotected worst case
     * (e.g.\ 10.0 for perfect balancing under the paper
     * calibration).
     */
    double reductionFactor(double p) const;

  private:
    double gBalanced_;
    double gWorst_;
    double slope_;
    double wideAttenuation_;
};

/**
 * Minimum-retention-voltage (Vmin) model for memory-like blocks.
 *
 * The paper quotes (from Abadeer & Ellis [1]) a 10% Vmin guardband
 * to tolerate a 10% VTH shift, and a 10X VTH-shift reduction for
 * balanced data patterns; this model is the Vmin analogue of
 * GuardbandModel with those anchors.
 */
class VminModel
{
  public:
    VminModel(double vmin_at_balanced = 0.01,
              double vmin_at_worst = 0.10);

    static VminModel paperCalibrated();

    /** Required Vmin increase (fraction) for cell bias @p bias0. */
    double vminIncreaseForCellBias(double bias0) const;

    /** Required Vmin increase for a relative VTH shift (1:1 per
     *  the paper's quoted rule of thumb). */
    double vminIncreaseForVthShift(double relative_shift) const;

    /**
     * Relative SRAM leakage/dynamic power factor for supply kept at
     * (1 + vmin_increase): power scales ~quadratically with V.
     */
    double powerFactor(double vmin_increase) const;

  private:
    double vBalanced_;
    double vWorst_;
};

} // namespace penelope

#endif // PENELOPE_NBTI_GUARDBAND_HH
