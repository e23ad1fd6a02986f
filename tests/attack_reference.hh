/**
 * @file
 * Reference model of attack-candidate pricing: materialise the
 * candidate's operand stream sample by sample and run it through the
 * general per-device-vector path.  Production prices a candidate in
 * closed form (evaluateCandidateExact, candidateFeatures in
 * core/surrogate_sweep.hh); the identity tests compare the two bit
 * for bit.
 */

#ifndef PENELOPE_TESTS_ATTACK_REFERENCE_HH
#define PENELOPE_TESTS_ATTACK_REFERENCE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "adder/analysis.hh"
#include "common/bitword.hh"
#include "common/duty.hh"
#include "core/surrogate_sweep.hh"
#include "trace/attack.hh"

namespace penelope::reference {

/** Operand stream of a candidate: the first @p count adder
 *  operations of its adversarial uop stream. */
inline std::vector<OperandSample>
candidateOperands(const AttackConfig &attack, std::size_t count)
{
    AttackTraceGenerator gen(attack);
    return collectAdderOperandsFrom(gen, count);
}

/**
 * Per-input-bit zero duties of an operand stream: every a-bit and
 * b-bit plus the carry-in, in that order.  Each 64-sample chunk is
 * transposed into the lane-word layout BitBiasTracker::observeBatch
 * consumes.
 */
inline std::vector<double>
operandDutyFeatures(const std::vector<OperandSample> &ops,
                    unsigned width)
{
    assert(width <= 32);
    BitBiasTracker tracker(operandFeatureCount(width));
    std::vector<std::uint64_t> words(operandFeatureCount(width));
    std::uint64_t ta[64];
    std::uint64_t tb[64];
    for (std::size_t begin = 0; begin < ops.size(); begin += 64) {
        const std::size_t count =
            std::min<std::size_t>(64, ops.size() - begin);
        std::uint64_t cin_mask = 0;
        for (std::size_t l = 0; l < count; ++l) {
            const OperandSample &op = ops[begin + l];
            ta[l] = op.a;
            tb[l] = op.b;
            if (op.cin)
                cin_mask |= std::uint64_t(1) << l;
        }
        std::fill(ta + count, ta + 64, 0);
        std::fill(tb + count, tb + 64, 0);
        transpose64x64(ta);
        transpose64x64(tb);
        for (unsigned bit = 0; bit < width; ++bit) {
            words[bit] = ta[bit];
            words[width + bit] = tb[bit];
        }
        words[2 * width] = cin_mask;
        const std::uint64_t lane_mask = count == 64
            ? ~std::uint64_t(0)
            : (std::uint64_t(1) << count) - 1;
        tracker.observeBatch(words.data(), lane_mask);
    }
    return tracker.biasVector();
}

/** Surrogate features of @p attack from its materialised
 *  64-sample prefix. */
inline std::vector<double>
candidateFeatures(const AttackConfig &attack, unsigned width)
{
    return operandDutyFeatures(
        candidateOperands(attack, kSurrogateFeatureSamples), width);
}

/** Exact evaluation of @p attack from its materialised stream and
 *  the per-device probability vector. */
inline CandidateEval
evaluateCandidateExact(const AdderAgingAnalysis &analysis,
                       const AttackConfig &attack,
                       std::size_t exact_samples)
{
    const auto ops = candidateOperands(attack, exact_samples);
    const auto probs = analysis.zeroProbsForOperands(ops);
    const AgingSummary summary = analysis.summarize(probs);
    CandidateEval eval;
    eval.score = analysis.meanDeviceGuardband(probs);
    eval.guardband = summary.guardband;
    eval.wideFullyStressed = analysis.wideFullyStressedFraction(probs);
    eval.narrowFullyStressed = summary.narrowFullyStressedFraction;
    return eval;
}

} // namespace penelope::reference

#endif // PENELOPE_TESTS_ATTACK_REFERENCE_HH
