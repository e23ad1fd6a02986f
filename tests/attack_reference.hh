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

#include <cassert>
#include <cstdint>
#include <vector>

#include "adder/analysis.hh"
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
 * b-bit plus the carry-in, in that order, counted sample by sample.
 */
inline std::vector<double>
operandDutyFeatures(const std::vector<OperandSample> &ops,
                    unsigned width)
{
    assert(width <= 32);
    const unsigned features = operandFeatureCount(width);
    std::vector<std::uint64_t> zeros(features, 0);
    for (const OperandSample &op : ops) {
        for (unsigned bit = 0; bit < width; ++bit) {
            zeros[bit] += ((op.a >> bit) & 1) ^ 1;
            zeros[width + bit] += ((op.b >> bit) & 1) ^ 1;
        }
        zeros[2 * width] += op.cin ? 0 : 1;
    }
    return BitBiasTracker::fromTimes(features, zeros.data(),
                                     ops.size())
        .biasVector();
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
