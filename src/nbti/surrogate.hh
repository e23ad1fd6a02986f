/**
 * @file
 * Fitted duty -> degradation surrogate: the cheap tier of the
 * two-tier evaluation pipeline.
 *
 * The exact engine prices every candidate (an operand stream, an
 * input rotation, an adversarial trace configuration) with a full
 * batched netlist replay.  Sweeps and searches are bottlenecked by
 * the *number* of such evaluations, not by any single kernel, so
 * this module fits a closed-form linear predictor from per-input-bit
 * duty features to the exact engine's degradation score and uses it
 * to decide *what* to evaluate exactly: the predicted top-K plus a
 * seeded audit sample.
 *
 * The iron contract of the repo extends to the surrogate: every
 * printed figure or statistic comes from the exact engine; the
 * surrogate only prunes the candidate list.  Fitting and audit
 * sampling draw from their own seeded xoshiro streams
 * (mixSeed(seed, index) per sample), so enabling or disabling
 * triage never perturbs the exact engine's draw sequence, and every
 * decision is a pure function of (samples, seed) -- bit-identical
 * across jobs counts, cache states and shard layouts.
 */

#ifndef PENELOPE_NBTI_SURROGATE_HH
#define PENELOPE_NBTI_SURROGATE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace penelope {

/** One training sample: a feature vector and the exact engine's
 *  degradation score for the same candidate. */
struct SurrogateSample
{
    std::vector<double> features;
    double score = 0.0;
};

/** Fitting knobs.  Everything is seeded and deterministic. */
struct SurrogateFitConfig
{
    /** Seed of the fit's own RNG stream (train/holdout split).
     *  Distinct from every engine stream by construction: the
     *  split draws Rng(mixSeed(seed, sample_index)) and nothing
     *  else ever sees those streams. */
    std::uint64_t seed = 0x5a6e'0f17'ca11'ab1eULL;

    /** Fraction of samples withheld from the normal equations and
     *  used only for the held-out error estimate. */
    double holdoutFraction = 0.25;

    /** Ridge (L2) regularisation added to the normal equations'
     *  diagonal (not the intercept); keeps the solve well-posed
     *  when features are collinear or samples are few. */
    double ridge = 1e-6;
};

/**
 * A fitted linear model: score ~ coeffs[0] + sum_j coeffs[1+j] *
 * features[j].  Fit by ridge-regularised least squares (normal
 * equations, Gaussian elimination with partial pivoting -- no
 * iterative solver, so the coefficients are a deterministic
 * function of the training set and the seed).
 */
struct SurrogateFit
{
    /** Intercept first, then one weight per feature. */
    std::vector<double> coeffs;

    double trainRmse = 0.0;
    double holdoutRmse = 0.0;
    std::size_t trainCount = 0;
    std::size_t holdoutCount = 0;

    /** Number of features the fit expects. */
    std::size_t
    featureCount() const
    {
        return coeffs.empty() ? 0 : coeffs.size() - 1;
    }

    /** Predicted score for one feature vector. */
    double predict(const double *features, std::size_t count) const;
    double predict(const std::vector<double> &features) const;
};

/**
 * Fit the surrogate on @p samples.  The train/holdout split is
 * per-sample seeded (sample i goes to the holdout set iff
 * Rng(mixSeed(config.seed, i)).nextDouble() < holdoutFraction), so
 * membership is independent of sample order and count.  Every
 * sample must carry the same feature count.
 */
SurrogateFit
fitSurrogate(const std::vector<SurrogateSample> &samples,
             const SurrogateFitConfig &config = {});

/** Triage knobs: which candidates the exact engine runs. */
struct TriageConfig
{
    /** Predicted-best candidates always evaluated exactly. */
    std::size_t topK = 8;

    /**
     * Seeded audit sample: candidate i is additionally evaluated
     * exactly iff Rng(mixSeed(auditSeed, i)).nextBool(fraction).
     * nextDouble() lives in [0, 1), so a fraction of 1.0 selects
     * every candidate -- the full-audit mode that callers require
     * to be byte-identical to triage disabled.
     */
    double auditFraction = 0.05;
    std::uint64_t auditSeed = 0xa0d1'7f2e'5eedULL;
};

/** What the triage pass did -- mirrored in the `surrogate.*`
 *  metrics so nothing is silently capped. */
struct TriageStats
{
    std::size_t candidatesScored = 0; ///< surrogate predictions made
    std::size_t pruned = 0;           ///< skipped by the exact engine
    std::size_t exactEvaluated = 0;   ///< selected for exact runs
    std::size_t audited = 0;          ///< exact runs owed to the audit
    std::size_t trainEvaluated = 0;   ///< exact runs spent on training

    void
    merge(const TriageStats &other)
    {
        candidatesScored += other.candidatesScored;
        pruned += other.pruned;
        exactEvaluated += other.exactEvaluated;
        audited += other.audited;
        trainEvaluated += other.trainEvaluated;
    }
};

/** Whether the seeded audit stream selects candidate @p index. */
bool
auditSelects(std::uint64_t audit_seed, std::size_t index,
             double fraction);

/**
 * Select the candidates the exact engine should run: the top-K by
 * predicted score (higher is better; ties break towards the lower
 * index) plus the seeded audit sample.  Returns ascending candidate
 * indices and accumulates counts into @p stats (audited counts the
 * audit picks not already in the top-K).
 */
std::vector<std::size_t>
triageSelect(const std::vector<double> &predicted,
             const TriageConfig &config, TriageStats &stats);

} // namespace penelope

#endif // PENELOPE_NBTI_SURROGATE_HH
