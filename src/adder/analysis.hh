/**
 * @file
 * Adder aging analysis: the Figure 4 / Figure 5 experiments.
 *
 * Pipeline: (1) age the adder under operand samples drawn from the
 * workload ("real inputs"), (2) age it under each synthetic input,
 * (3) sweep all synthetic input pairs for the fraction of narrow
 * PMOS left fully stressed (Figure 4), (4) combine real and
 * synthetic duty cycles at a given adder utilisation and convert to
 * a guardband (Figure 5).
 */

#ifndef PENELOPE_ADDER_ANALYSIS_HH
#define PENELOPE_ADDER_ANALYSIS_HH

#include <cstdint>
#include <vector>

#include "circuit/aging.hh"
#include "common/rng.hh"
#include "idle_inputs.hh"
#include "trace/generator.hh"

namespace penelope {

/** One sampled (a, b, cin) adder operation. */
struct OperandSample
{
    std::uint32_t a;
    std::uint32_t b;
    bool cin;
};

/**
 * Extract adder operand samples from a uop stream: IntAlu ops
 * contribute their source operands (subtracts appear as inverted
 * second operand with carry-in 1, which keeps the carry-in "0" more
 * than 90% of the time as the paper observes); loads and stores
 * contribute base + displacement address generations.
 */
std::vector<OperandSample>
collectAdderOperands(TraceGenerator &gen, std::size_t count);

/**
 * Generator-generic form of collectAdderOperands(): any source with
 * a `Uop next()` (the workload TraceGenerator, the adversarial
 * AttackTraceGenerator) feeds the same extraction -- same bounded
 * scan, same seeded subtract conversion -- so a candidate trace
 * configuration maps to one deterministic operand stream.
 */
template <class Gen>
std::vector<OperandSample>
collectAdderOperandsFrom(Gen &gen, std::size_t count);

/**
 * Per-input-bit zero-duty features of an operand stream: the zero
 * probability of every a-bit and b-bit plus the carry-in, in that
 * order (2 * width + 1 values).  This is the surrogate's feature
 * vector.  Extraction is batch-wise: 64 samples per pass through
 * transpose64x64 into BitBiasTracker::observeBatch, no scalar
 * per-sample loops, so the cost per candidate is a small constant
 * times the sample count / 64.
 */
std::vector<double>
operandDutyFeatures(const std::vector<OperandSample> &ops,
                    unsigned width = 32);

/** Feature count of operandDutyFeatures() for @p width. */
constexpr unsigned
operandFeatureCount(unsigned width)
{
    return 2 * width + 1;
}

/** Result of the Figure-4 pair sweep for one pair. */
struct PairSweepEntry
{
    InputPair pair;
    /** Narrow PMOS at 100% zero-signal probability / all PMOS. */
    double narrowFullyStressedFraction;
};

/** The pair of a non-empty sweepPairs() result minimising the
 *  Figure-4 metric (ties: first in order, which matches the paper's
 *  1+8 choice). */
InputPair bestPair(const std::vector<PairSweepEntry> &sweep);

/**
 * Aging analysis harness bound to one adder topology.
 */
class AdderAgingAnalysis
{
  public:
    AdderAgingAnalysis(const Adder &adder,
                       const GuardbandModel &model);

    /** Per-device zero probability under one synthetic input. */
    std::vector<double> zeroProbsForInput(unsigned index) const;

    /** Per-device zero probability under a round-robin pair
     *  (each value is 0, 0.5 or 1). */
    std::vector<double> zeroProbsForPair(const InputPair &pair) const;

    /**
     * Per-device zero probability under a round-robin rotation of
     * arbitrary synthetic inputs (one lane each, evaluated in a
     * single batched netlist pass).  zeroProbsForInput/-Pair are
     * the one- and two-element forms.
     */
    std::vector<double>
    zeroProbsForInputs(const std::vector<unsigned> &indices) const;

    /**
     * Per-device zero probability under operand samples @p ops.
     *
     * Each netlist lane is one (a, b, cin) vector with a weight,
     * the number of samples it stands for; a weighted lane is
     * charged with one PmosAgingTracker::observeBatchWide that
     * passes its weight as the dt.  A lane of weight w adds w times
     * what one sample-lane of the same vector adds, and the
     * tracker's sums are integers, so every probability is
     * bit-identical to one lane (or one scalar applyInput) per
     * sample.
     *
     * Prefix rule: when the first 64 samples hold at most two
     * distinct vectors (an attack stream holds exactly two), the
     * first two distinct vectors get a weighted lane each and any
     * further vector a lane per sample; otherwise (workload
     * operands are ~90% distinct) every sample is its own lane of
     * weight 1.
     */
    std::vector<double>
    zeroProbsForOperands(const std::vector<OperandSample> &ops) const;

    /** Figure 4: all 28 pairs with their stressed-narrow fraction. */
    std::vector<PairSweepEntry> sweepPairs() const;

    /**
     * Figure 5: required guardband when real inputs are applied
     * @p utilization of the time and the pair's synthetic inputs the
     * rest.  @p real_probs comes from zeroProbsForOperands().
     * Uses per-device mixing: p = u * p_real + (1-u) * p_pair.
     */
    double scenarioGuardband(const std::vector<double> &real_probs,
                             double utilization,
                             const InputPair &pair) const;

    /** Guardband with real inputs held during idle periods too
     *  (the unprotected baseline of Figure 5). */
    double
    baselineGuardband(const std::vector<double> &real_probs) const;

    /**
     * Mean per-device guardband: the average of
     * guardbandForZeroProb over every PMOS device (width-aware).
     * Monotone in every per-device duty, so unlike the worst-case
     * summary -- which saturates once any narrow device is pinned
     * -- it discriminates between streams that pin many devices
     * and streams that pin few.  This is the degradation score the
     * surrogate is trained on and the attack search maximises.
     */
    double
    meanDeviceGuardband(const std::vector<double> &zero_probs) const;

    /** Fraction of wide (carry-merge) PMOS at >= 99.99% zero-signal
     *  probability -- the metric of the constant-operand wearout
     *  attack (0 when the netlist has no wide devices). */
    double wideFullyStressedFraction(
        const std::vector<double> &zero_probs) const;

    /** Summary for an arbitrary per-device probability vector. */
    AgingSummary
    summarize(const std::vector<double> &zero_probs) const;

    const Adder &adder() const { return adder_; }

  private:
    const Adder &adder_;
    GuardbandModel model_;
};

template <class Gen>
std::vector<OperandSample>
collectAdderOperandsFrom(Gen &gen, std::size_t count)
{
    std::vector<OperandSample> out;
    out.reserve(count);
    // Bounded scan: some streams are branch/FP heavy, so cap the
    // number of uops inspected to avoid unbounded loops.
    const std::size_t max_uops = count * 16 + 1024;
    Rng rng(0xadde7);
    for (std::size_t scanned = 0;
         out.size() < count && scanned < max_uops; ++scanned) {
        const Uop uop = gen.next();
        OperandSample s{};
        switch (uop.cls) {
          case UopClass::IntAlu: {
            const std::uint32_t a =
                static_cast<std::uint32_t>(uop.srcVal1);
            const std::uint32_t b = static_cast<std::uint32_t>(
                uop.hasImm ? uop.imm : uop.srcVal2);
            // ~8% of ALU adds are subtracts: A + ~B + 1.
            if (rng.nextBool(0.08)) {
                s = {a, ~b, true};
            } else {
                s = {a, b, false};
            }
            break;
          }
          case UopClass::Load:
          case UopClass::Store: {
            // AGU: base + displacement.
            const std::uint32_t base =
                static_cast<std::uint32_t>(uop.srcVal1);
            const std::uint32_t disp = static_cast<std::uint32_t>(
                uop.addr - uop.srcVal1);
            s = {base, disp, false};
            break;
          }
          default:
            continue;
        }
        out.push_back(s);
    }
    return out;
}

} // namespace penelope

#endif // PENELOPE_ADDER_ANALYSIS_HH
