/**
 * @file
 * Surrogate-triaged candidate sweeps: the integration layer between
 * the fitted duty -> degradation predictor (nbti/surrogate.hh) and
 * the exact adder aging engine (adder/analysis.hh).
 *
 * A *candidate* is a set of adversarial trace parameters
 * (AttackConfig).  Its operand stream is known in closed form: with
 * a pinned source value a and immediate imm, every adder sample is
 * the add {a, imm, 0} or the seeded subtract {a, ~imm, 1}, and the
 * subtract count of the first n samples is a fixed function of n
 * (subtractCount).  Exact pricing therefore evaluates two vectors in
 * one netlist pass and walks the devices once
 * (AdderAgingAnalysis::twoVectorAging), bit-identical to replaying
 * the stream sample by sample.  A sweep over N candidates costs N
 * such evaluations -- unless the surrogate prunes it: score every
 * candidate from its 64-sample-prefix duty features, then run the
 * exact engine only on the predicted top-K plus a seeded audit
 * sample.
 *
 * Contract (shared with the rest of the repo):
 *  - every CandidateEval the callers print comes from the exact
 *    engine; the surrogate only selects indices;
 *  - all exact evaluations flow through Engine::mapCached under the
 *    content-addressed "attack-candidate" domain, so pruned,
 *    exhaustive and repeated sweeps share warm entries;
 *  - with triage disabled (or an audit fraction of 1.0) the sweep
 *    evaluates every candidate and is byte-identical to the
 *    pre-surrogate behaviour -- same draws, same merges, same keys.
 */

#ifndef PENELOPE_CORE_SURROGATE_SWEEP_HH
#define PENELOPE_CORE_SURROGATE_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "adder/analysis.hh"
#include "core/engine.hh"
#include "nbti/surrogate.hh"
#include "trace/attack.hh"

namespace penelope {

/** Exact engine verdict on one candidate stream; `score`, its mean
 *  per-device guardband, is the search objective. */
using CandidateEval = StreamAging;

void encodeResult(ByteWriter &w, const CandidateEval &v);
bool decodeResult(ByteReader &r, CandidateEval &v);

/** Number of operand samples in the surrogate's feature prefix. */
constexpr std::size_t kSurrogateFeatureSamples = 64;

/** Feature count of candidateFeatures() for @p width: every a-bit
 *  and b-bit plus the carry-in. */
constexpr unsigned
operandFeatureCount(unsigned width)
{
    return 2 * width + 1;
}

/** Surrogate feature vector of a candidate: the zero duty of every
 *  a-bit, b-bit and the carry-in (in that order) over the first
 *  kSurrogateFeatureSamples adder operations of its uop stream,
 *  computed in closed form from a, imm and the subtract count --
 *  the same (total - one) / total doubles BitBiasTracker::biasVector
 *  gives on the materialised samples. */
std::vector<double>
candidateFeatures(const AttackConfig &attack, unsigned width);

/** Content hash of one exact candidate evaluation.  Covers the
 *  trace parameters that shape the operand stream, the sample
 *  count and the adder topology -- everything that determines the
 *  replay's result. */
Hash128
attackCandidateKey(const Adder &adder, const AttackConfig &attack,
                   std::size_t exact_samples);

/** Exact evaluation of one candidate over the first
 *  @p exact_samples adder operations of its uop stream: the add and
 *  subtract vectors weighted by their counts, priced by
 *  AdderAgingAnalysis::twoVectorAging.  Bit-identical to collecting
 *  the samples and summarising zeroProbsForOperands() of them. */
CandidateEval
evaluateCandidateExact(const AdderAgingAnalysis &analysis,
                       const AttackConfig &attack,
                       std::size_t exact_samples);

/** Fresh random candidate from the search stream @p rng. */
AttackConfig randomAttackCandidate(Rng &rng);

/** Mutated copy of @p base: a handful of seeded bit flips and
 *  parameter nudges on the trace knobs the adversary controls. */
AttackConfig mutateAttackCandidate(const AttackConfig &base,
                                   Rng &rng);

/** Sweep sizing and triage knobs. */
struct CandidateSweepConfig
{
    /** False = exhaustive: every candidate is evaluated exactly
     *  and the surrogate is never consulted. */
    bool triage = true;
    TriageConfig triageConfig;
    /** Operand samples per exact evaluation. */
    std::size_t exactSamples = 2048;
};

/** Outcome of one sweep: exact verdicts for the evaluated subset. */
struct CandidateSweepResult
{
    /** Ascending candidate indices the exact engine ran. */
    std::vector<std::size_t> evaluated;
    /** Exact verdicts, parallel to `evaluated`. */
    std::vector<CandidateEval> evals;
    /** Candidate index of the best exact score (ties towards the
     *  lower index). */
    std::size_t bestIndex = 0;
    CandidateEval best;
    TriageStats stats;
};

/**
 * Sweep @p candidates for the highest exact degradation score.
 * With triage on, @p fit scores every candidate from its feature
 * prefix and only the predicted top-K plus the audit sample pay
 * for exact evaluation; with triage off (or @p fit null) every
 * candidate is evaluated exactly.  Exact runs go through
 * @p engine.mapCached under the "attack-candidate" domain.
 */
CandidateSweepResult
sweepAttackCandidates(const AdderAgingAnalysis &analysis,
                      const std::vector<AttackConfig> &candidates,
                      const SurrogateFit *fit,
                      const CandidateSweepConfig &config,
                      const Engine &engine, ResultCache *cache);

/**
 * Fit the surrogate for @p analysis' adder: draw @p count training
 * candidates from the fit stream (mixSeed(fit_config.seed, 1e9+i),
 * disjoint from every search stream), evaluate them exactly
 * (cached) and fit on their feature/score pairs.  The exact
 * evaluations are accounted in @p stats.trainEvaluated.
 */
SurrogateFit
trainAttackSurrogate(const AdderAgingAnalysis &analysis,
                     std::size_t count,
                     const SurrogateFitConfig &fit_config,
                     std::size_t exact_samples, const Engine &engine,
                     ResultCache *cache, TriageStats &stats);

} // namespace penelope

#endif // PENELOPE_CORE_SURROGATE_SWEEP_HH
