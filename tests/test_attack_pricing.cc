/**
 * @file
 * Closed-form attack-candidate pricing against the materialising
 * reference model (attack_reference.hh): the subtract-count table,
 * AdderAgingAnalysis::twoVectorAging, evaluateCandidateExact and
 * candidateFeatures must equal, bit for bit, collecting the
 * candidate's operand samples and reducing them per device and per
 * input bit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "attack_reference.hh"
#include "common/rng.hh"
#include "core/surrogate_sweep.hh"
#include "nbti/guardband.hh"
#include "trace/attack.hh"

namespace penelope {
namespace {

/** Every 32-bit adder topology. */
std::vector<std::unique_ptr<Adder>>
adders32()
{
    std::vector<std::unique_ptr<Adder>> adders;
    adders.push_back(std::make_unique<LadnerFischerAdder>(32));
    adders.push_back(std::make_unique<RippleCarryAdder>(32));
    adders.push_back(std::make_unique<KoggeStoneAdder>(32));
    return adders;
}

/** IEEE-754 bit pattern of @p v. */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectEvalsIdentical(const CandidateEval &got, const CandidateEval &want,
                     const std::string &what)
{
    EXPECT_EQ(bits(got.score), bits(want.score)) << what;
    EXPECT_EQ(bits(got.guardband), bits(want.guardband)) << what;
    EXPECT_EQ(bits(got.wideFullyStressed), bits(want.wideFullyStressed))
        << what;
    EXPECT_EQ(bits(got.narrowFullyStressed),
              bits(want.narrowFullyStressed))
        << what;
}

/**
 * Seeded candidate corpus: alternately a fresh random candidate and
 * a mutation of the previous one, with the branch period cycling
 * through 0, 1 and every value in 2..32 and the hot-register window
 * through several sizes (neither rotation moves an adder sample, so
 * both must leave the price unchanged).
 */
std::vector<AttackConfig>
candidateCorpus(std::uint64_t seed, std::size_t count)
{
    static constexpr unsigned kHotRegs[] = {0, 1, 3, 7, 16};
    Rng rng(seed);
    std::vector<AttackConfig> corpus;
    AttackConfig previous = randomAttackCandidate(rng);
    for (std::size_t i = 0; i < count; ++i) {
        AttackConfig attack = i % 2 == 0
            ? randomAttackCandidate(rng)
            : mutateAttackCandidate(previous, rng);
        attack.branchPeriod = static_cast<unsigned>(i % 33);
        attack.hotRegs = kHotRegs[i % 5];
        corpus.push_back(attack);
        previous = attack;
    }
    return corpus;
}

TEST(AttackPricing, SubtractCountFollowsTheDrawStream)
{
    // Across the prefix table's end: the count is the hits among
    // the first n draws, and the samples the reference collects
    // carry exactly that many carry-ins.
    Rng rng(kSubtractSeed);
    std::uint64_t hits = 0;
    for (std::uint64_t n = 0; n <= kSubtractPrefix + 300; ++n) {
        ASSERT_EQ(subtractCount(n), hits) << "n = " << n;
        hits += rng.nextBool(kSubtractShare) ? 1 : 0;
    }
    AttackConfig attack;
    attack.branchPeriod = 3;
    for (const std::size_t n : {std::size_t(64), std::size_t(2048),
                                std::size_t(kSubtractPrefix + 1)}) {
        std::uint64_t cins = 0;
        for (const OperandSample &op :
             reference::candidateOperands(attack, n))
            cins += op.cin ? 1 : 0;
        EXPECT_EQ(subtractCount(n), cins) << "n = " << n;
    }
}

TEST(AttackPricing, TwoVectorAgingEqualsPerSampleProbabilities)
{
    // Arbitrary vector pairs (not only attack-shaped ones), with
    // either count zero, interleaved in a seeded order: the closed
    // form must equal the per-device vector of the stream.
    Rng rng(0x7a0fec);
    for (const auto &adder : adders32()) {
        const AdderAgingAnalysis analysis(
            *adder, GuardbandModel::paperCalibrated());
        for (unsigned trial = 0; trial < 12; ++trial) {
            const auto draw = [&rng] {
                return OperandSample{
                    static_cast<std::uint32_t>(rng.nextInt(1ull << 32)),
                    static_cast<std::uint32_t>(rng.nextInt(1ull << 32)),
                    rng.nextBool()};
            };
            const OperandSample first = draw();
            const OperandSample second = draw();
            const std::uint64_t first_count =
                trial == 0 ? 0 : rng.nextInt(300);
            const std::uint64_t second_count =
                trial == 1 ? 0 : rng.nextInt(300);
            std::vector<OperandSample> ops;
            std::uint64_t left[2] = {first_count, second_count};
            while (left[0] + left[1] != 0) {
                const unsigned k =
                    rng.nextInt(left[0] + left[1]) < left[0] ? 0 : 1;
                ops.push_back(k == 0 ? first : second);
                --left[k];
            }
            const auto probs = analysis.zeroProbsForOperands(ops);
            const AgingSummary summary = analysis.summarize(probs);
            const StreamAging got = analysis.twoVectorAging(
                first, first_count, second, second_count);
            const std::string what = std::string(adder->name()) +
                " trial " + std::to_string(trial);
            EXPECT_EQ(bits(got.score),
                      bits(analysis.meanDeviceGuardband(probs)))
                << what;
            EXPECT_EQ(bits(got.guardband), bits(summary.guardband))
                << what;
            EXPECT_EQ(bits(got.wideFullyStressed),
                      bits(analysis.wideFullyStressedFraction(probs)))
                << what;
            EXPECT_EQ(bits(got.narrowFullyStressed),
                      bits(summary.narrowFullyStressedFraction))
                << what;
        }
    }
}

TEST(AttackPricing, ExactEqualsReferenceOnEveryAdder)
{
    const std::size_t counts[] = {0,  1,    63,
                                  64, 65,   2048,
                                  std::size_t(kSubtractPrefix + 1)};
    const auto corpus = candidateCorpus(0xe1ac7, 66);
    for (const auto &adder : adders32()) {
        const AdderAgingAnalysis analysis(
            *adder, GuardbandModel::paperCalibrated());
        for (const std::size_t n : counts) {
            for (std::size_t c = 0; c < corpus.size(); ++c) {
                expectEvalsIdentical(
                    evaluateCandidateExact(analysis, corpus[c], n),
                    reference::evaluateCandidateExact(analysis,
                                                      corpus[c], n),
                    std::string(adder->name()) + " n=" +
                        std::to_string(n) + " candidate " +
                        std::to_string(c));
            }
        }
    }
}

TEST(AttackPricing, FeaturesEqualReference)
{
    const auto corpus = candidateCorpus(0xfea7, 330);
    for (const unsigned width : {32u, 16u, 5u, 1u}) {
        for (std::size_t c = 0; c < corpus.size(); ++c) {
            const auto got = candidateFeatures(corpus[c], width);
            const auto want =
                reference::candidateFeatures(corpus[c], width);
            ASSERT_EQ(got.size(), operandFeatureCount(width));
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t f = 0; f < got.size(); ++f) {
                ASSERT_EQ(bits(got[f]), bits(want[f]))
                    << "width " << width << " candidate " << c
                    << " feature " << f;
            }
        }
    }
}

TEST(AttackPricing, ConcurrentFirstUseAgrees)
{
    // The engine pool prices candidates concurrently, so the
    // subtract-count table may be first touched by several threads
    // at once (a race here is what the TSan job would report).
    const LadnerFischerAdder adder(32);
    const AdderAgingAnalysis analysis(
        adder, GuardbandModel::paperCalibrated());
    const auto corpus = candidateCorpus(0xc0c0, 8);
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<CandidateEval>> evals(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (const AttackConfig &attack : corpus) {
                evals[t].push_back(evaluateCandidateExact(
                    analysis, attack, kSubtractPrefix + 1));
                evals[t].push_back(
                    evaluateCandidateExact(analysis, attack, 2048));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (std::size_t c = 0; c < corpus.size(); ++c) {
        const CandidateEval want[2] = {
            reference::evaluateCandidateExact(analysis, corpus[c],
                                              kSubtractPrefix + 1),
            reference::evaluateCandidateExact(analysis, corpus[c],
                                              2048)};
        for (unsigned t = 0; t < kThreads; ++t) {
            for (unsigned k = 0; k < 2; ++k) {
                expectEvalsIdentical(
                    evals[t][2 * c + k], want[k],
                    "thread " + std::to_string(t) + " candidate " +
                        std::to_string(c));
            }
        }
    }
}

} // namespace
} // namespace penelope
