/**
 * @file
 * Demand-driven runners and shared replay timelines.
 *
 * A runner computes only the arms its caller asks for, and the arms
 * of one trace share one replay timeline.  Neither may move a
 * number: every arm subset returns exactly the statistics of the
 * same arms of the full call and stores the same payloads under the
 * same keys, and a shared-timeline pass equals separate one-arm runs
 * bit for bit, also when a warm cache already holds some arms.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/serialize.hh"
#include "regfile/driver.hh"
#include "scheduler/driver.hh"
#include "scheduler/profile.hh"
#include "trace/attack.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

ExperimentOptions
tinyOptions(unsigned jobs)
{
    ExperimentOptions options;
    options.traceStride = 97; // ~6 of the 531 traces
    options.uopsPerTrace = 2'000;
    options.cacheUops = 2'000;
    options.adderOperandSamples = 200;
    options.profilingTraces = 20;
    options.jobs = jobs;
    return options;
}

/** A cache's entries, key -> payload, parsed from its shard-format
 *  export. */
using Entries =
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::string>;

Entries
entriesOf(ResultCache &cache)
{
    std::string bytes;
    cache.exportToBytes(bytes);
    ByteReader r(bytes);
    r.u32(); // magic
    r.u32(); // format version
    Entries out;
    while (r.ok() && !r.atEnd()) {
        const std::uint64_t lo = r.u64();
        const std::uint64_t hi = r.u64();
        const std::string payload(r.bytesView(r.u32()));
        r.u64(); // checksum
        out.emplace(std::pair{lo, hi}, payload);
    }
    EXPECT_TRUE(r.ok());
    return out;
}

/** Every entry of @p sub is in @p full with the same payload. */
void
expectSubset(const Entries &sub, const Entries &full)
{
    for (const auto &[key, payload] : sub) {
        const auto it = full.find(key);
        ASSERT_NE(it, full.end());
        EXPECT_EQ(it->second, payload);
    }
}

template <class R>
std::string
encoded(const R &value)
{
    ByteWriter w;
    encodeResult(w, value);
    return w.data();
}

void
expectIdentical(const RegFileArmResult &a, const RegFileArmResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.arm.fp, b.arm.fp);
    EXPECT_EQ(a.arm.isv, b.arm.isv);
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.worst, b.worst);
    EXPECT_EQ(a.guardband, b.guardband);
    EXPECT_EQ(a.freeFraction, b.freeFraction);
    EXPECT_EQ(encoded(a.isvStats), encoded(b.isvStats));
}

void
expectIdentical(const SchedulerArmResult &a, const SchedulerArmResult &b)
{
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.worstFig8, b.worstFig8);
    EXPECT_EQ(a.occupancy, b.occupancy);
}

const std::vector<RegFileArm> kFig6Arms = {
    {false, false}, {false, true}, {true, false}, {true, true}};

// ------------------------------------------------- arm subsets

TEST(ArmSubsets, RegFileSubsetsMatchTheFullCall)
{
    const WorkloadSet workload;
    for (const unsigned jobs : {1u, 4u}) {
        ExperimentOptions options = tinyOptions(jobs);
        const std::size_t traces =
            evaluationTraces(workload, options).size();
        ResultCache full_cache;
        options.cache = &full_cache;
        const auto full =
            runRegFileExperiment(workload, kFig6Arms, options);
        const Entries full_entries = entriesOf(full_cache);

        // Every non-empty subset, in both orders.
        for (unsigned mask = 1; mask < 16; ++mask) {
            for (const bool reversed : {false, true}) {
                std::vector<RegFileArm> arms;
                std::vector<std::size_t> from;
                for (std::size_t a = 0; a < 4; ++a) {
                    const std::size_t k = reversed ? 3 - a : a;
                    if (mask & (1u << k)) {
                        arms.push_back(kFig6Arms[k]);
                        from.push_back(k);
                    }
                }
                ResultCache cache;
                options.cache = &cache;
                const auto subset =
                    runRegFileExperiment(workload, arms, options);
                ASSERT_EQ(subset.size(), arms.size());
                for (std::size_t a = 0; a < arms.size(); ++a)
                    expectIdentical(subset[a], full[from[a]]);
                const Entries entries = entriesOf(cache);
                EXPECT_EQ(entries.size(), arms.size() * traces);
                expectSubset(entries, full_entries);
            }
        }
    }
}

TEST(ArmSubsets, SchedulerSubsetsMatchTheFullCall)
{
    const WorkloadSet workload;
    for (const unsigned jobs : {1u, 4u}) {
        ExperimentOptions options = tinyOptions(jobs);
        ResultCache full_cache;
        options.cache = &full_cache;
        const auto full =
            runSchedulerExperiment(workload, SchedulerArms::Both, options);
        const Entries full_entries = entriesOf(full_cache);

        ResultCache base_cache;
        options.cache = &base_cache;
        const auto base = runSchedulerExperiment(
            workload, SchedulerArms::Baseline, options);
        ASSERT_TRUE(base.baseline.has_value());
        EXPECT_FALSE(base.protectedArm.has_value());
        expectIdentical(*base.baseline, *full.baseline);
        expectSubset(entriesOf(base_cache), full_entries);

        ResultCache prot_cache;
        options.cache = &prot_cache;
        const auto prot = runSchedulerExperiment(
            workload, SchedulerArms::Protected, options);
        EXPECT_FALSE(prot.baseline.has_value());
        ASSERT_TRUE(prot.protectedArm.has_value());
        expectIdentical(*prot.protectedArm, *full.protectedArm);
        EXPECT_EQ(prot.protectedArm->guardband,
                  full.protectedArm->guardband);
        EXPECT_EQ(prot.protectedArm->efficiency,
                  full.protectedArm->efficiency);
        ASSERT_EQ(prot.protectedArm->techniques.size(),
                  full.protectedArm->techniques.size());
        for (std::size_t f = 0; f < prot.protectedArm->techniques.size();
             ++f) {
            EXPECT_EQ(prot.protectedArm->techniques[f].dominantTechnique,
                      full.protectedArm->techniques[f].dominantTechnique);
            EXPECT_EQ(prot.protectedArm->techniques[f].minK,
                      full.protectedArm->techniques[f].minK);
            EXPECT_EQ(prot.protectedArm->techniques[f].maxK,
                      full.protectedArm->techniques[f].maxK);
        }
        expectSubset(entriesOf(prot_cache), full_entries);

        // The baseline arm runs no profile, so the two arms split
        // the full call's entries between them.
        EXPECT_EQ(entriesOf(base_cache).size() +
                      entriesOf(prot_cache).size(),
                  full_entries.size());
    }
}

// ---------------------------------------------- shared timelines

/** Decisions from a small profile: enough to make every release
 *  repair its slot. */
std::vector<BitDecision>
smallDecisions(const WorkloadSet &workload)
{
    return decideProtection(
        profileScheduler(workload, {0, 200}, 4'000).bits);
}

/** Both scheduler arms on one pass against two separate runs. */
template <class Gen>
void
expectSchedulerPassMatchesSeparateRuns(
    Gen gen, const SchedReplayConfig &config,
    const std::vector<BitDecision> &decisions, std::size_t uops)
{
    std::vector<Uop> stream(uops);
    for (Uop &u : stream)
        u = gen.next();

    SchedulerPass shared(config, decisions, {false, true});
    SchedulerPass alone_base(config, decisions, {false});
    SchedulerPass alone_prot(config, decisions, {true});
    // Uneven chunks: a cycle left open at a chunk end carries over.
    for (std::size_t at = 0; at < uops;) {
        const std::size_t n = std::min<std::size_t>(333, uops - at);
        for (SchedulerPass *pass : {&shared, &alone_base, &alone_prot})
            pass->feed(stream.data() + at, n);
        at += n;
    }
    const std::vector<SchedulerStress> arms = shared.results();
    const std::string prot = encoded(arms[1]);
    const std::string base = encoded(arms[0]);
    EXPECT_EQ(prot, encoded(alone_prot.results().front()));
    EXPECT_EQ(base, encoded(alone_base.results().front()));
    EXPECT_NE(prot, base);
}

TEST(SharedTimeline, SchedulerFig8ArmsMatchSeparateRuns)
{
    const WorkloadSet workload;
    const auto decisions = smallDecisions(workload);
    for (const unsigned index : {3u, 250u}) {
        SchedReplayConfig config;
        config.seed = mixSeed(config.seed, index);
        expectSchedulerPassMatchesSeparateRuns(
            workload.replayGenerator(index), config, decisions, 5'000);
    }
}

TEST(SharedTimeline, SchedulerAttackArmsMatchSeparateRuns)
{
    const WorkloadSet workload;
    const auto decisions = smallDecisions(workload);
    AttackConfig ones;
    ones.dataValue = 0xffffffffULL;
    ones.imm = 0xffff;
    ones.flags = 0x3f;
    ones.taken = true;
    SchedReplayConfig config;
    config.arrivalRate = 4.0; // saturated, as the attack runs it
    config.seed = mixSeed(config.seed, 1);
    expectSchedulerPassMatchesSeparateRuns(AttackTraceGenerator(ones),
                                           config, decisions, 5'000);
}

/** Both ISV arms of one file on one pass against two separate
 *  runs. */
template <class Gen>
void
expectRegFilePassMatchesSeparateRuns(Gen gen,
                                     const RegFileConfig &rf_config,
                                     const RegReplayConfig &config,
                                     std::size_t uops)
{
    std::vector<Uop> stream(uops);
    for (Uop &u : stream)
        u = gen.next();

    RegFilePass shared(config, rf_config, {false, true});
    RegFilePass alone_base(config, rf_config, {false});
    RegFilePass alone_isv(config, rf_config, {true});
    for (std::size_t at = 0; at < uops;) {
        const std::size_t n = std::min<std::size_t>(333, uops - at);
        for (RegFilePass *pass : {&shared, &alone_base, &alone_isv})
            pass->feed(stream.data() + at, n);
        at += n;
    }
    // Per arm: the replay's counters, then the file's bias and ISV
    // statistics.
    const auto state = [](RegFilePass &pass) {
        const RegReplayResult r = pass.replayResult();
        std::vector<std::string> arms;
        for (const RegFileShard &shard : pass.results()) {
            ByteWriter w;
            w.u64(r.cycles);
            w.u64(r.writes);
            w.u64(r.releases);
            w.u64(r.forcedReleases);
            w.f64(r.freeFraction);
            encodeResult(w, shard.bias);
            encodeResult(w, shard.isv);
            arms.push_back(w.data());
        }
        return arms;
    };
    const std::vector<std::string> arms = state(shared);
    const std::string isv = arms[1];
    const std::string base = arms[0];
    EXPECT_EQ(isv, state(alone_isv).front());
    EXPECT_EQ(base, state(alone_base).front());
    EXPECT_NE(isv, base);
}

TEST(SharedTimeline, RegFileFig6ArmsMatchSeparateRuns)
{
    const WorkloadSet workload;
    for (const bool fp : {false, true}) {
        RegFileConfig rf;
        rf.name = fp ? "FP-RF" : "INT-RF";
        rf.numEntries = fp ? 64 : 128;
        rf.width = fp ? 80 : 32;
        RegReplayConfig config;
        config.fp = fp;
        config.portFreeProb = fp ? 0.86 : 0.92;
        config.commitDelay = fp ? 110 : 64;
        config.seed = mixSeed(config.seed, 7);
        expectRegFilePassMatchesSeparateRuns(workload.replayGenerator(7),
                                             rf, config, 8'000);
    }
}

TEST(SharedTimeline, RegFileAttackArmsMatchSeparateRuns)
{
    AttackConfig zeros;
    zeros.hotRegs = 4;
    RegFileConfig rf;
    RegReplayConfig config;
    config.portFreeProb = 0.92;
    config.commitDelay = 64;
    config.seed = mixSeed(config.seed, 0);
    expectRegFilePassMatchesSeparateRuns(AttackTraceGenerator(zeros), rf,
                                         config, 8'000);
}

// ------------------------------------ warm caches holding some arms

TEST(SharedTimeline, WarmRegFileArmLeavesTheOtherArmsExact)
{
    const WorkloadSet workload;
    for (const unsigned jobs : {1u, 4u}) {
        const auto reference =
            runRegFileExperiment(workload, kFig6Arms, tinyOptions(jobs));
        for (const RegFileArm warm : kFig6Arms) {
            ExperimentOptions options = tinyOptions(jobs);
            ResultCache cache;
            options.cache = &cache;
            runRegFileExperiment(workload, {warm}, options);
            const std::uint64_t stored = cache.stats().stores;
            const auto both =
                runRegFileExperiment(workload, kFig6Arms, options);
            for (std::size_t a = 0; a < 4; ++a)
                expectIdentical(both[a], reference[a]);
            EXPECT_EQ(cache.stats().stores - stored, 3 * stored);
        }
    }
}

TEST(SharedTimeline, WarmSchedulerArmLeavesTheOtherArmExact)
{
    const WorkloadSet workload;
    for (const unsigned jobs : {1u, 4u}) {
        const auto reference = runSchedulerExperiment(
            workload, SchedulerArms::Both, tinyOptions(jobs));
        for (const SchedulerArms warm :
             {SchedulerArms::Baseline, SchedulerArms::Protected}) {
            ExperimentOptions options = tinyOptions(jobs);
            ResultCache cache;
            options.cache = &cache;
            runSchedulerExperiment(workload, warm, options);
            const auto both = runSchedulerExperiment(
                workload, SchedulerArms::Both, options);
            expectIdentical(*both.baseline, *reference.baseline);
            expectIdentical(*both.protectedArm, *reference.protectedArm);
        }
    }
}

/** Run one catalog experiment against @p cache; returns stdout. */
std::string
runCatalog(const std::string &name, ResultCache &cache, unsigned jobs)
{
    registerBuiltinExperiments();
    const Experiment *experiment =
        ExperimentRegistry::instance().find(name);
    EXPECT_NE(experiment, nullptr);
    std::ostringstream out;
    const WorkloadSet workload;
    ExperimentOptions options = tinyOptions(jobs);
    options.cache = &cache;
    experiment->run({workload, options, out});
    return out.str();
}

TEST(SharedTimeline, AttackWithAnyOneEntryMissingIsExact)
{
    // The attack experiment replays paired arms per item (scheduler
    // unprotected/protected, register file ISV off/on).  Dropping
    // any one stored entry leaves a warm cache holding the other
    // arm of that item: the rerun must simulate just that entry and
    // print and store exactly what the cold run did.
    ResultCache cold;
    const std::string reference = runCatalog("attack", cold, 1);
    const Entries entries = entriesOf(cold);
    ASSERT_GT(entries.size(), 8u);

    std::size_t dropped = 0;
    for (const auto &[key, payload] : entries) {
        // Rebuild the store without this one entry.
        ResultCache warm;
        for (const auto &[other, other_payload] : entries) {
            if (other != key)
                warm.store({other.first, other.second}, other_payload);
        }
        const ResultCache::Stats before = warm.stats();
        EXPECT_EQ(runCatalog("attack", warm, dropped % 2 ? 4 : 1),
                  reference);
        EXPECT_EQ(warm.stats().stores - before.stores, 1u);
        EXPECT_EQ(entriesOf(warm), entries);
        ++dropped;
    }
}

} // namespace
} // namespace penelope
