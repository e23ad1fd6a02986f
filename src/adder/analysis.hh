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

/** Seed of the subtract stream: IntAlu sample k of
 *  collectAdderOperandsFrom() is a subtract when draw k of
 *  Rng(kSubtractSeed).nextBool(kSubtractShare) hits. */
constexpr std::uint64_t kSubtractSeed = 0xadde7;

/** Share of ALU adds that are subtracts (A + ~B + 1). */
constexpr double kSubtractShare = 0.08;

/** Draws of the subtract stream subtractCount() tabulates: twice
 *  the attack search's default sample count. */
constexpr std::uint64_t kSubtractPrefix = 4096;

/**
 * Subtracts among the first @p samples IntAlu samples of
 * collectAdderOperandsFrom(): the hits in the first @p samples
 * draws of the fixed subtract stream.  A prefix table built once
 * per process answers counts up to kSubtractPrefix; larger counts
 * continue the stream from the table's end.  Safe to call from
 * any number of threads.
 */
std::uint64_t subtractCount(std::uint64_t samples);

/**
 * The four aging figures of one operand stream, each equal bit for
 * bit to what AdderAgingAnalysis' per-device-vector forms give on
 * zeroProbsForOperands() of that stream.
 */
struct StreamAging
{
    /** meanDeviceGuardband(): the attack search's objective. */
    double score = 0.0;
    /** summarize().guardband: the saturated worst case. */
    double guardband = 0.0;
    /** wideFullyStressedFraction(). */
    double wideFullyStressed = 0.0;
    /** summarize().narrowFullyStressedFraction. */
    double narrowFullyStressed = 0.0;
};

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
     * Per-device zero probability under operand samples @p ops:
     * one netlist lane per sample, 64 * preferredBatchWords()
     * lanes per pass, bit-identical to one scalar applyInput per
     * sample (the tracker's sums are integers).
     */
    std::vector<double>
    zeroProbsForOperands(const std::vector<OperandSample> &ops) const;

    /**
     * Aging of a stream that applies @p first @p first_count times
     * and @p second @p second_count times, in any order.  The two
     * vectors are evaluated in one 1-word netlist pass, which gives
     * every stress slot a 2-bit class (is its gate at 0 under each
     * vector?); each class has one zero probability, the integer
     * ratio PmosAgingTracker::zeroProb divides, and one walk over
     * the devices in order yields all four figures.  Equal bit for
     * bit to the per-device-vector forms on zeroProbsForOperands()
     * of such a stream (probability 0.5 everywhere when both counts
     * are 0).
     */
    StreamAging twoVectorAging(const OperandSample &first,
                               std::uint64_t first_count,
                               const OperandSample &second,
                               std::uint64_t second_count) const;

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
    Rng rng(kSubtractSeed);
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
            if (rng.nextBool(kSubtractShare)) {
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
