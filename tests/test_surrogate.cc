/**
 * @file
 * Tests for the surrogate triage layer: deterministic least-squares
 * fitting, feature sanity, triage selection accounting, the
 * full-audit == triage-off identity of candidate sweeps and the
 * attack-search experiment, top-K argmax coverage on candidate
 * corpora, seed reproducibility and RNG-stream isolation.  The
 * iron rule under test throughout: the surrogate only decides what
 * the exact engine evaluates -- every printed figure is exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "common/rng.hh"
#include "core/engine.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/surrogate_sweep.hh"
#include "nbti/guardband.hh"
#include "nbti/surrogate.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

/** Synthetic linear corpus: score = 0.3 + sum_i w_i * f_i with no
 *  noise, so an exact fit exists and both RMSEs must be ~0. */
std::vector<SurrogateSample>
linearCorpus(std::size_t count, std::size_t features,
             std::uint64_t seed)
{
    std::vector<double> weights(features);
    Rng wrng(mixSeed(seed, 0x3e1));
    for (auto &w : weights)
        w = wrng.nextDouble() - 0.5;
    std::vector<SurrogateSample> samples(count);
    for (std::size_t i = 0; i < count; ++i) {
        Rng rng(mixSeed(seed, i));
        samples[i].features.resize(features);
        double score = 0.3;
        for (std::size_t f = 0; f < features; ++f) {
            samples[i].features[f] = rng.nextDouble();
            score += weights[f] * samples[i].features[f];
        }
        samples[i].score = score;
    }
    return samples;
}

TEST(SurrogateFit, DeterministicAcrossRuns)
{
    const auto samples = linearCorpus(80, 12, 0xf00d);
    SurrogateFitConfig config;
    const SurrogateFit a = fitSurrogate(samples, config);
    const SurrogateFit b = fitSurrogate(samples, config);
    ASSERT_EQ(a.coeffs.size(), b.coeffs.size());
    for (std::size_t c = 0; c < a.coeffs.size(); ++c)
        EXPECT_EQ(a.coeffs[c], b.coeffs[c]) << "coeff " << c;
    EXPECT_EQ(a.trainRmse, b.trainRmse);
    EXPECT_EQ(a.holdoutRmse, b.holdoutRmse);
    EXPECT_EQ(a.trainCount, b.trainCount);
    EXPECT_EQ(a.holdoutCount, b.holdoutCount);
}

TEST(SurrogateFit, RecoversNoiselessLinearModel)
{
    const auto samples = linearCorpus(200, 8, 0xbeef);
    SurrogateFitConfig config;
    const SurrogateFit fit = fitSurrogate(samples, config);
    EXPECT_EQ(fit.featureCount(), 8u);
    EXPECT_GT(fit.trainCount, 0u);
    EXPECT_GT(fit.holdoutCount, 0u);
    EXPECT_LT(fit.trainRmse, 1e-6);
    EXPECT_LT(fit.holdoutRmse, 1e-6);
    // Predictions on fresh points from the same model also match.
    const auto fresh = linearCorpus(20, 8, 0xbeef);
    for (const auto &s : fresh)
        EXPECT_NEAR(fit.predict(s.features), s.score, 1e-6);
}

TEST(SurrogateFit, SplitChangesWithSeed)
{
    const auto samples = linearCorpus(80, 6, 0x51ee9);
    SurrogateFitConfig a, b;
    b.seed = a.seed + 1;
    const SurrogateFit fa = fitSurrogate(samples, a);
    const SurrogateFit fb = fitSurrogate(samples, b);
    // Different per-sample split streams: the partition (or at
    // least its observable sizes/errors) differs.
    EXPECT_TRUE(fa.trainCount != fb.trainCount ||
                fa.trainRmse != fb.trainRmse);
}

// ----------------------------------------------------------- features

TEST(SurrogateFeatures, ZeroDutiesAreMonotoneInOperandZeros)
{
    // All-zero operand values keep every input bit at logic 0, so
    // every zero-duty feature saturates at 1; all-ones operands
    // drive the a-side duties to 0.  The feature extractor must
    // preserve that ordering bit for bit.
    AttackConfig zeros;
    zeros.dataValue = 0;
    zeros.imm = 0;
    zeros.branchPeriod = 0;
    AttackConfig ones = zeros;
    ones.dataValue = 0xffff'ffffULL;
    ones.imm = 0xffff;

    const auto f0 = candidateFeatures(zeros, 32);
    const auto f1 = candidateFeatures(ones, 32);
    ASSERT_EQ(f0.size(), operandFeatureCount(32));
    ASSERT_EQ(f1.size(), f0.size());
    for (std::size_t i = 0; i < f0.size(); ++i) {
        EXPECT_GE(f0[i], 0.0);
        EXPECT_LE(f0[i], 1.0);
        EXPECT_GE(f0[i], f1[i]) << "feature " << i;
    }
    // a-bit duties: pinned-zero operands are always zero.
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_EQ(f0[i], 1.0) << "a-bit " << i;
}

TEST(SurrogateFeatures, PredictionTracksStressOrdering)
{
    // Trained on real candidates, the surrogate must at least rank
    // the all-zero stream (maximal zero duty -> maximal NBTI
    // stress) above the alternating-bits stream.
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    TriageStats stats;
    SurrogateFitConfig config;
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, 48, config, 256, engine, nullptr, stats);
    EXPECT_EQ(stats.trainEvaluated, 48u);

    AttackConfig zeros;
    zeros.dataValue = 0;
    zeros.imm = 0;
    zeros.branchPeriod = 0;
    AttackConfig mixed = zeros;
    mixed.dataValue = 0x5555'5555ULL;
    mixed.imm = 0x5555;
    EXPECT_GT(fit.predict(candidateFeatures(zeros, 32)),
              fit.predict(candidateFeatures(mixed, 32)));
}

// ------------------------------------------------------------- triage

TEST(Triage, FullAuditSelectsEverythingInOrder)
{
    TriageConfig config;
    config.topK = 2;
    config.auditFraction = 1.0;
    TriageStats stats;
    const std::vector<double> predicted = {0.3, 0.1, 0.9, 0.5};
    const auto selected = triageSelect(predicted, config, stats);
    const std::vector<std::size_t> all = {0, 1, 2, 3};
    EXPECT_EQ(selected, all);
    EXPECT_EQ(stats.candidatesScored, 4u);
    EXPECT_EQ(stats.exactEvaluated, 4u);
    EXPECT_EQ(stats.pruned, 0u);
}

TEST(Triage, TopKPlusAuditAccounting)
{
    TriageConfig config;
    config.topK = 2;
    config.auditFraction = 0.0;
    TriageStats stats;
    const std::vector<double> predicted = {0.3, 0.1, 0.9, 0.5, 0.2};
    const auto selected = triageSelect(predicted, config, stats);
    const std::vector<std::size_t> expect = {2, 3};
    EXPECT_EQ(selected, expect); // ascending indices
    EXPECT_EQ(stats.candidatesScored, 5u);
    EXPECT_EQ(stats.exactEvaluated, 2u);
    EXPECT_EQ(stats.pruned, 3u);
    EXPECT_EQ(stats.audited, 0u);
}

// ----------------------------------------------- sweeps and coverage

ExperimentOptions
searchOptions()
{
    ExperimentOptions options;
    options.traceStride = 97;
    options.uopsPerTrace = 2'000;
    options.adderOperandSamples = 200;
    options.surrogateTrainCandidates = 24;
    options.attackSearchRestarts = 2;
    options.attackSearchGenerations = 3;
    options.attackSearchProposals = 8;
    options.attackSearchExactSamples = 256;
    return options;
}

std::string
runAttackSearchToString(const ExperimentOptions &options)
{
    registerBuiltinExperiments();
    const Experiment *exp =
        ExperimentRegistry::instance().find("attack-search");
    EXPECT_NE(exp, nullptr);
    const WorkloadSet workload;
    std::ostringstream out;
    exp->run({workload, options, out});
    return out.str();
}

TEST(AttackSearch, FullAuditByteIdenticalToNoSurrogate)
{
    // A full audit prices every candidate exactly, so a triaged
    // sweep at audit fraction 1.0 must equal a sweep with triage
    // off: the same candidates, verdicts and winner.
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    TriageStats train_stats;
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, 24, SurrogateFitConfig(), 256, engine, nullptr,
        train_stats);
    std::vector<AttackConfig> pool;
    for (std::size_t i = 0; i < 32; ++i) {
        Rng rng(mixSeed(0xa0d1, i));
        pool.push_back(randomAttackCandidate(rng));
    }
    CandidateSweepConfig off;
    off.triage = false;
    off.exactSamples = 256;
    CandidateSweepConfig full_audit = off;
    full_audit.triage = true;
    full_audit.triageConfig.auditFraction = 1.0;

    const CandidateSweepResult a = sweepAttackCandidates(
        analysis, pool, nullptr, off, engine, nullptr);
    const CandidateSweepResult b = sweepAttackCandidates(
        analysis, pool, &fit, full_audit, engine, nullptr);
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(b.evaluated.size(), pool.size());
    ASSERT_EQ(a.evals.size(), b.evals.size());
    for (std::size_t i = 0; i < a.evals.size(); ++i) {
        EXPECT_EQ(a.evals[i].score, b.evals[i].score) << i;
        EXPECT_EQ(a.evals[i].guardband, b.evals[i].guardband) << i;
    }
    EXPECT_EQ(a.bestIndex, b.bestIndex);
    EXPECT_EQ(a.best.score, b.best.score);

    // The experiment takes the triage-off path under a full audit,
    // which is jobs-invariant like every exact sweep.
    ExperimentOptions serial = searchOptions();
    serial.surrogateAuditFraction = 1.0;
    ExperimentOptions parallel = serial;
    parallel.jobs = 4;
    const std::string out = runAttackSearchToString(serial);
    EXPECT_EQ(out, runAttackSearchToString(parallel));
    EXPECT_NE(out.find("Attack search"), std::string::npos);
}

TEST(AttackSearch, SeedReproducible)
{
    const ExperimentOptions options = searchOptions();
    const std::string a = runAttackSearchToString(options);
    const std::string b = runAttackSearchToString(options);
    EXPECT_EQ(a, b);

    ExperimentOptions reseeded = searchOptions();
    reseeded.surrogateSeed ^= 0x1234'5678ULL;
    // A different surrogate seed redraws the restart starting
    // points, so the search visits different streams.
    EXPECT_NE(runAttackSearchToString(reseeded), a);
}

TEST(AttackSearch, TriagedJobsInvariant)
{
    ExperimentOptions serial = searchOptions();
    ExperimentOptions parallel = searchOptions();
    parallel.jobs = 4;
    EXPECT_EQ(runAttackSearchToString(serial),
              runAttackSearchToString(parallel));
}

TEST(SweepCoverage, TopKContainsExactArgmax)
{
    // The acceptance corpora: seeded random candidate pools; the
    // pruned sweep must always exact-evaluate the candidate the
    // exhaustive sweep crowns, and report the same best score.
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    // Default-strength training and default top-K: the coverage
    // this test pins is the one the shipping configuration gives.
    TriageStats train_stats;
    SurrogateFitConfig fit_config;
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, 96, fit_config, 512, engine, nullptr,
        train_stats);

    CandidateSweepConfig exhaustive;
    exhaustive.triage = false;
    exhaustive.exactSamples = 512;
    CandidateSweepConfig pruned = exhaustive;
    pruned.triage = true;
    pruned.triageConfig.topK = ExperimentOptions().surrogateTopK;
    pruned.triageConfig.auditFraction = 0.05;

    for (std::uint64_t corpus = 0; corpus < 3; ++corpus) {
        std::vector<AttackConfig> pool;
        for (std::size_t i = 0; i < 64; ++i) {
            Rng rng(mixSeed(0xc0de'0000 + corpus, i));
            pool.push_back(randomAttackCandidate(rng));
        }
        const CandidateSweepResult full = sweepAttackCandidates(
            analysis, pool, nullptr, exhaustive, engine, nullptr);
        const CandidateSweepResult cut = sweepAttackCandidates(
            analysis, pool, &fit, pruned, engine, nullptr);
        EXPECT_LT(cut.evaluated.size(), pool.size())
            << "corpus " << corpus;
        EXPECT_NE(std::find(cut.evaluated.begin(),
                            cut.evaluated.end(), full.bestIndex),
                  cut.evaluated.end())
            << "corpus " << corpus;
        EXPECT_EQ(cut.best.score, full.best.score)
            << "corpus " << corpus;
        EXPECT_EQ(cut.bestIndex, full.bestIndex)
            << "corpus " << corpus;
    }
}

TEST(SweepCoverage, ShippingConfigurationCoversArgmax)
{
    // attack-search's shipping triage (default fit, top-K and
    // audit) on a 1024-candidate pool: the pruned sweep must still
    // exact-evaluate the exhaustive argmax and report its score.
    const ExperimentOptions options;
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    ResultCache memo;
    TriageStats train_stats;
    SurrogateFitConfig fit_config;
    fit_config.seed = mixSeed(options.surrogateSeed, 0xf17);
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, options.surrogateTrainCandidates, fit_config,
        options.attackSearchExactSamples, engine, &memo,
        train_stats);

    std::vector<AttackConfig> pool;
    for (std::size_t i = 0; i < 1024; ++i) {
        Rng rng(mixSeed(options.surrogateSeed, 0x9001'0000ULL + i));
        pool.push_back(randomAttackCandidate(rng));
    }
    CandidateSweepConfig exhaustive;
    exhaustive.triage = false;
    exhaustive.exactSamples = options.attackSearchExactSamples;
    CandidateSweepConfig pruned = exhaustive;
    pruned.triage = true;
    pruned.triageConfig.topK = options.surrogateTopK;
    pruned.triageConfig.auditFraction = options.surrogateAuditFraction;
    pruned.triageConfig.auditSeed =
        mixSeed(options.surrogateSeed, 0xa0d17);

    const CandidateSweepResult full = sweepAttackCandidates(
        analysis, pool, nullptr, exhaustive, engine, &memo);
    const CandidateSweepResult cut = sweepAttackCandidates(
        analysis, pool, &fit, pruned, engine, &memo);
    EXPECT_LT(cut.evaluated.size(), pool.size() / 8);
    EXPECT_NE(std::find(cut.evaluated.begin(), cut.evaluated.end(),
                        full.bestIndex),
              cut.evaluated.end());
    EXPECT_EQ(cut.best.score, full.best.score);
}

TEST(SweepCoverage, CacheDoesNotChangeResults)
{
    const Engine engine(1);
    LadnerFischerAdder adder(32);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    std::vector<AttackConfig> pool;
    for (std::size_t i = 0; i < 16; ++i) {
        Rng rng(mixSeed(0xcafe, i));
        pool.push_back(randomAttackCandidate(rng));
    }
    CandidateSweepConfig config;
    config.triage = false;
    config.exactSamples = 256;

    ResultCache cache; // in-memory store
    const auto uncached = sweepAttackCandidates(
        analysis, pool, nullptr, config, engine, nullptr);
    const auto cold = sweepAttackCandidates(
        analysis, pool, nullptr, config, engine, &cache);
    const auto warm = sweepAttackCandidates(
        analysis, pool, nullptr, config, engine, &cache);
    EXPECT_EQ(cache.stats().hits, pool.size());
    ASSERT_EQ(cold.evals.size(), uncached.evals.size());
    for (std::size_t i = 0; i < cold.evals.size(); ++i) {
        EXPECT_EQ(cold.evals[i].score, uncached.evals[i].score);
        EXPECT_EQ(warm.evals[i].score, uncached.evals[i].score);
        EXPECT_EQ(warm.evals[i].guardband,
                  uncached.evals[i].guardband);
    }
}

// ------------------------------------------------- stream isolation

TEST(RngStreams, SurrogateStreamTagsArePinned)
{
    // The surrogate's derived streams, pinned: renaming a tag (or
    // touching mixSeed) silently re-draws every training pool,
    // audit pick and search trajectory, so any drift must fail
    // loudly here.  These are the streams behind the default
    // surrogateSeed.
    const std::uint64_t seed = 0x5a11'7e57'0b5eULL;
    EXPECT_EQ(mixSeed(seed, 0xf17), 0xa3e6ba6306e20e73ULL);
    EXPECT_EQ(mixSeed(seed, 0xa0d17), 0x86fa7717ba9b295eULL);
    EXPECT_EQ(mixSeed(seed, 0x5ea4c0), 0x8afb86775b8361aeULL);
    Rng fit(mixSeed(seed, 0xf17));
    Rng audit(mixSeed(seed, 0xa0d17));
    Rng search(mixSeed(seed, 0x5ea4c0));
    EXPECT_EQ(fit(), 0x2d52aa4903b1a6a8ULL);
    EXPECT_EQ(audit(), 0xcdc645985e0a47a0ULL);
    EXPECT_EQ(search(), 0x31aa577cad8aace0ULL);
}

TEST(RngStreams, TrainingPoolDisjointFromSearchStreams)
{
    // The training pool draws from mixSeed(fitSeed, 2^62 + i); the
    // search draws from mixSeed(surrogateSeed, 0x5ea4c0 + r).  The
    // first candidates of each must differ -- shared draws would
    // couple triage quality to the search trajectory.
    const std::uint64_t seed = 0x5a11'7e57'0b5eULL;
    const std::uint64_t fit_seed = mixSeed(seed, 0xf17);
    Rng train(mixSeed(fit_seed, 0x4000'0000'0000'0000ULL));
    Rng search(mixSeed(seed, 0x5ea4c0));
    const AttackConfig a = randomAttackCandidate(train);
    const AttackConfig b = randomAttackCandidate(search);
    EXPECT_TRUE(a.dataValue != b.dataValue || a.imm != b.imm ||
                a.branchPeriod != b.branchPeriod);
}

TEST(RngStreams, CacheSaltUnchangedBySurrogate)
{
    // Triage adds no new simulation semantics -- the exact engine,
    // its options and its payload codecs are untouched -- so the
    // cache salt must NOT have bumped with this feature.
    EXPECT_EQ(kResultCacheSalt, "penelope-result-cache-v1");
}

// ------------------------------------------- absolute exact anchors

TEST(ExactPricingAnchor, LadnerFischerCandidatesPinned)
{
    // Absolute values of the exact pricing kernel, not just
    // self-consistency: four candidates drawn from the stream the
    // benchmark probes, priced on the 32-bit Ladner-Fischer adder.
    // Every field derives from integer stress counts, so any change
    // to slot grouping, lane masking or popcount accounting that
    // moves a single count moves one of these doubles.
    const LadnerFischerAdder adder(32);
    const AdderAgingAnalysis analysis(
        adder, GuardbandModel::paperCalibrated());
    Rng rng(mixSeed(0x5a11'7e57'0b5eULL, 0xbe9c4));
    struct Pinned
    {
        double score;
        double guardband;
        double wideFullyStressed;
        double narrowFullyStressed;
    };
    const Pinned pinned[4] = {
        {0.02770189502571126, 0.2, 0.33811475409836067,
         0.030063291139240507},
        {0.026712411614912324, 0.2, 0.34221311475409838,
         0.028481012658227847},
        {0.027028413024129064, 0.2, 0.35553278688524592,
         0.028481012658227847},
        {0.028684335443037119, 0.2, 0.35143442622950821,
         0.031645569620253167},
    };
    for (unsigned c = 0; c < 4; ++c) {
        const CandidateEval eval = evaluateCandidateExact(
            analysis, randomAttackCandidate(rng), 2048);
        EXPECT_EQ(eval.score, pinned[c].score) << "candidate " << c;
        EXPECT_EQ(eval.guardband, pinned[c].guardband)
            << "candidate " << c;
        EXPECT_EQ(eval.wideFullyStressed, pinned[c].wideFullyStressed)
            << "candidate " << c;
        EXPECT_EQ(eval.narrowFullyStressed,
                  pinned[c].narrowFullyStressed)
            << "candidate " << c;
    }
}

TEST(ExactPricingAnchor, FixedCandidateBitPatternsPinned)
{
    // One hand-written candidate (branches every 4th uop, a 3-register
    // window), its four CandidateEval doubles pinned as IEEE-754 bit
    // patterns: exact pricing must not move a single ulp however it
    // groups the candidate's operand samples into lanes.
    const LadnerFischerAdder adder(32);
    const AdderAgingAnalysis analysis(
        adder, GuardbandModel::paperCalibrated());
    AttackConfig attack;
    attack.dataValue = 0x8badf00d;
    attack.imm = 0x4c3a;
    attack.branchPeriod = 4;
    attack.hotRegs = 3;
    const CandidateEval eval =
        evaluateCandidateExact(analysis, attack, 2048);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(eval.score),
              0x3f9cbe3d8b2fabbaull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(eval.guardband),
              0x3fc999999999999aull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(eval.wideFullyStressed),
              0x3fd714fbcda3ac11ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(eval.narrowFullyStressed),
              0x3fa16aefcc26e2d6ull);
}

/** FNV-1a over the little-endian IEEE-754 bytes of @p probs. */
std::uint64_t
probsDigest(const std::vector<double> &probs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const double p : probs) {
        const auto v = std::bit_cast<std::uint64_t>(p);
        for (unsigned k = 0; k < 8; ++k) {
            h ^= (v >> (8 * k)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(ExactPricingAnchor, OperandZeroProbDigestsPinned)
{
    // Per-device zero probabilities of one workload operand stream
    // (1000 samples: three full wide chunks plus a partial one) on
    // every 32-bit topology, pinned as digests.
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(2);
    const auto ops = collectAdderOperands(gen, 1000);
    ASSERT_EQ(ops.size(), 1000u);
    const LadnerFischerAdder lf(32);
    const KoggeStoneAdder ks(32);
    const RippleCarryAdder rc(32);
    const std::pair<const Adder *, std::uint64_t> pinned[] = {
        {&lf, 0xeaef861b5bb229fdull},
        {&ks, 0xa61846e34df8a207ull},
        {&rc, 0x605e116840f3eb2aull},
    };
    for (const auto &[adder, digest] : pinned) {
        const AdderAgingAnalysis analysis(
            *adder, GuardbandModel::paperCalibrated());
        EXPECT_EQ(probsDigest(analysis.zeroProbsForOperands(ops)),
                  digest)
            << adder->name();
    }
}

} // namespace
} // namespace penelope
