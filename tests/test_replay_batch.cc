/**
 * @file
 * Absolute anchors for the scheduler and cache replay accounting.
 *
 * The scheduler parks slot-image residences in 64-record batches and
 * folds them with one transposed drain; the cache charges its
 * data-bias tracker on every image change.  Both are exact integer
 * sums, so fixed traces pin them literally: the replay counters, the
 * per-field in-use times and a digest of every per-bit zero-time.
 * The pins are the values a scalar per-event accounting path
 * produced (the batched drain matched it bit for bit), so the
 * "MatchScalar" tests hold the one remaining path to that scalar
 * form.  Uop counts straddle batch boundaries (partial,
 * exactly-full and multi-batch runs), with protection and ISV off
 * and on.  The batched-only properties -- mid-run reads fold the
 * pending batch without changing the final snapshot, and snapshots
 * merge in any order -- are checked alongside.  (The register file's
 * anchors live in test_regfile.cc.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "scheduler/driver.hh"
#include "scheduler/profile.hh"
#include "scheduler/scheduler.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// ------------------------------------------------------ comparators

/** FNV-1a over the little-endian bytes of every per-bit zero-time
 *  of @p trackers, in order. */
std::uint64_t
zeroTimeDigest(const std::vector<BitBiasTracker> &trackers)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const BitBiasTracker &t : trackers) {
        for (unsigned bit = 0; bit < t.width(); ++bit) {
            const std::uint64_t v = t.zeroTime(bit);
            for (unsigned k = 0; k < 8; ++k) {
                h ^= (v >> (8 * k)) & 0xff;
                h *= 0x100000001b3ull;
            }
        }
    }
    return h;
}

/** Exact per-bit integer equality of two bias trackers. */
void
expectTrackersEqual(const BitBiasTracker &a, const BitBiasTracker &b)
{
    ASSERT_EQ(a.width(), b.width());
    EXPECT_EQ(a.totalTime(), b.totalTime());
    for (unsigned bit = 0; bit < a.width(); ++bit)
        EXPECT_EQ(a.zeroTime(bit), b.zeroTime(bit)) << "bit " << bit;
}

void
expectStressEqual(const SchedulerStress &a, const SchedulerStress &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.busyIntegral, b.busyIntegral);
    ASSERT_EQ(a.totalBias.size(), b.totalBias.size());
    ASSERT_EQ(a.fieldUseTime, b.fieldUseTime);
    for (std::size_t f = 0; f < a.totalBias.size(); ++f) {
        expectTrackersEqual(a.totalBias[f], b.totalBias[f]);
        expectTrackersEqual(a.busyBias[f], b.busyBias[f]);
    }
}

// ------------------------------------------------------- scheduler

/** Replay @p num_uops of workload trace @p trace against a fresh
 *  scheduler and snapshot it. */
SchedulerStress
runScheduler(unsigned trace, std::size_t num_uops, bool protect,
             SchedReplayResult *result = nullptr)
{
    WorkloadSet w;
    Scheduler sched{SchedulerConfig{}};
    if (protect) {
        const SchedulerProfile profile =
            profileScheduler(w, {trace}, 4000);
        sched.configureProtection(decideProtection(profile.bits));
        sched.enableProtection(true);
    }
    SchedulerReplay replay(sched, SchedReplayConfig{});
    TraceGenerator gen = w.generator(trace);
    const SchedReplayResult r = replay.run(gen, num_uops);
    if (result)
        *result = r;
    return sched.snapshotStress(r.cycles);
}

/** The literal pins of one scheduler replay. */
struct SchedAnchor
{
    unsigned trace;
    std::size_t uops;
    Cycle cycles;
    std::uint64_t entryTime; ///< every bit's total residence
    std::uint64_t alwaysUsed; ///< in-use time of the 15 whole fields
    std::uint64_t src1, src2, imm; ///< capture fields' in-use time
    std::uint64_t totalDigest; ///< unprotected totalBias zero-times
    std::uint64_t protectedDigest; ///< the same, protection + ISV on
    std::uint64_t busyDigest; ///< busyBias zero-times (either mode)
};

// Captured from the scalar per-event accounting.  Protection
// rewrites only the unused fields of a slot, so the in-use (busy)
// accounting and the replay counters are the same in both modes;
// only the all-time zero-times move.
const SchedAnchor kSchedAnchors[] = {
    {0, 63, 51, 1632, 766, 285, 90, 54, 0x647d004255b131f7ull,
     0x1b5810bf833babb7ull, 0x762b718055563c0aull},
    {1, 64, 45, 1440, 630, 212, 190, 61, 0xfb5aff7d6255190aull,
     0xd39f99ee17cbaa67ull, 0x48649390d21f2864ull},
    {2, 777, 337, 10784, 6285, 1933, 1480, 820, 0x2e7e970c01f73060ull,
     0xa6516982644e1b7aull, 0xd5091a68fff0ad98ull},
    {3, 5001, 2015, 64480, 40829, 13388, 8778, 6431,
     0x1d27afa37053ebbfull, 0x0f738b62ec9d6b72ull,
     0x4054ab8ceffe8828ull},
};

void
expectSchedAnchor(const SchedAnchor &a, bool protect)
{
    SCOPED_TRACE(::testing::Message()
                 << "trace " << a.trace << " uops " << a.uops
                 << (protect ? " protected" : " unprotected"));
    SchedReplayResult r;
    const SchedulerStress s = runScheduler(a.trace, a.uops, protect, &r);
    EXPECT_EQ(r.cycles, a.cycles);
    EXPECT_EQ(r.allocated, a.uops);
    EXPECT_EQ(r.released, a.uops);
    EXPECT_EQ(s.cycles, a.cycles);

    std::vector<std::uint64_t> use(numFields, a.alwaysUsed);
    use[static_cast<unsigned>(FieldId::Src1Data)] = a.src1;
    use[static_cast<unsigned>(FieldId::Src2Data)] = a.src2;
    use[static_cast<unsigned>(FieldId::Imm)] = a.imm;
    EXPECT_EQ(s.fieldUseTime, use);

    for (const BitBiasTracker &t : s.totalBias)
        EXPECT_EQ(t.totalTime(), a.entryTime);
    EXPECT_EQ(zeroTimeDigest(s.totalBias),
              protect ? a.protectedDigest : a.totalDigest);
    EXPECT_EQ(zeroTimeDigest(s.busyBias), a.busyDigest);
}

TEST(SchedulerReplayBatch, RandomTracesMatchScalar)
{
    for (const SchedAnchor &a : kSchedAnchors)
        expectSchedAnchor(a, false);
}

TEST(SchedulerReplayBatch, ProtectionAndIsvOnMatchScalar)
{
    // Protection exercises the repair/ISV write paths, whose
    // decision stream (and RNG draws) must not depend on when the
    // batch drains.
    for (const SchedAnchor &a : kSchedAnchors)
        expectSchedAnchor(a, true);
}

TEST(SchedulerReplayBatch, MidRunReadsFoldPendingBatch)
{
    // Mid-run statistic reads force a fold of the pending batch
    // (including deferred releases).  Reading after every leg, after
    // one leg only, or never must leave the same final state.
    WorkloadSet w;
    Scheduler every{SchedulerConfig{}};
    Scheduler once{SchedulerConfig{}};
    Scheduler quiet{SchedulerConfig{}};
    SchedulerReplay re(every, SchedReplayConfig{});
    SchedulerReplay ro(once, SchedReplayConfig{});
    SchedulerReplay rq(quiet, SchedReplayConfig{});
    TraceGenerator ge = w.generator(1);
    TraceGenerator go = w.generator(1);
    TraceGenerator gq = w.generator(1);

    for (int leg = 0; leg < 3; ++leg) {
        const Cycle now = re.run(ge, 997).cycles;
        ro.run(go, 997);
        rq.run(gq, 997);
        EXPECT_GT(every.occupancy(now), 0.0);
        EXPECT_GT(every.fieldOccupancy(FieldId::Src1Data, now), 0.0);
        EXPECT_EQ(every.biasVector(now).size(),
                  fieldLayout().totalBits());
        if (leg == 1) {
            EXPECT_EQ(once.bitProfiles(now).size(),
                      fieldLayout().totalBits());
        }
    }
    const Cycle end = re.run(ge, 100).cycles;
    ASSERT_EQ(ro.run(go, 100).cycles, end);
    ASSERT_EQ(rq.run(gq, 100).cycles, end);
    const SchedulerStress reference = quiet.snapshotStress(end);
    expectStressEqual(every.snapshotStress(end), reference);
    expectStressEqual(once.snapshotStress(end), reference);
}

TEST(SchedulerReplayBatch, MergeOrderInterleavings)
{
    // Snapshots of different traces merge to the same aggregate in
    // any order: merge() sums commutative integers.
    const SchedulerStress a = runScheduler(0, 1500, false);
    const SchedulerStress b = runScheduler(1, 2111, false);
    const SchedulerStress c = runScheduler(2, 777, true);

    SchedulerStress abc = a;
    abc.merge(b);
    abc.merge(c);
    SchedulerStress cba = c;
    cba.merge(b);
    cba.merge(a);
    SchedulerStress bac = b;
    bac.merge(a);
    bac.merge(c);
    expectStressEqual(abc, cba);
    expectStressEqual(abc, bac);
    EXPECT_EQ(abc.cycles, a.cycles + b.cycles + c.cycles);
}

// ---------------------------------------------------------- cache

TEST(CacheReplayBatch, AccessStreamsMatchScalar)
{
    // A random access stream over a small cache, with enough misses
    // to rotate line images (dt > 1 residencies throughout).
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024;
    cfg.ways = 4;
    Cache cache(cfg);

    Rng rng(0xcac4e);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr =
            static_cast<Addr>(rng.nextInt(1 << 14)) & ~Addr(7);
        const bool is_write = rng.nextBool(0.3);
        const Word data = rng();
        now += 1 + rng.nextInt(3);
        cache.access(addr, is_write, now, data);
    }
    EXPECT_EQ(now, 39950u);
    EXPECT_EQ(cache.hits(), 4986u);
    EXPECT_EQ(cache.misses(), 15014u);
    const BitBiasTracker &bias = cache.finalizeDataBias(now);
    EXPECT_EQ(bias.totalTime(), 2556800u); // 64 lines x 39950 cycles
    EXPECT_EQ(zeroTimeDigest({bias}), 0x633a813e26d1a858ull);
    EXPECT_EQ(bias.zeroTime(0), 1259210u);
    EXPECT_EQ(bias.zeroTime(63), 1271207u);
}

TEST(CacheReplayBatch, InvertedLinesMatchScalar)
{
    // Line inversions rewrite images mid-residence; the accounting
    // must charge the pre-inversion image up to the inversion.
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 1024;
    cfg.ways = 2;
    Cache cache(cfg);

    Rng gen(0x90ff);
    Cycle t = 0;
    unsigned inversions = 0;
    for (int i = 0; i < 8000; ++i) {
        t += 1 + gen.nextInt(2);
        const Addr addr =
            static_cast<Addr>(gen.nextInt(1 << 13)) & ~Addr(7);
        const bool is_write = gen.nextBool(0.25);
        cache.access(addr, is_write, t, gen());
        if ((i & 255) == 255) {
            const unsigned set =
                static_cast<unsigned>(i / 256) % cache.numSets();
            inversions += cache.invertLruLineOfSet(set, t) ? 1u : 0u;
        }
    }
    EXPECT_EQ(inversions, 31u);
    EXPECT_EQ(t, 12010u);
    EXPECT_EQ(cache.hits(), 2035u);
    EXPECT_EQ(cache.misses(), 5965u);
    const BitBiasTracker &bias = cache.finalizeDataBias(t);
    EXPECT_EQ(bias.totalTime(), 384320u); // 32 lines x 12010 cycles
    EXPECT_EQ(zeroTimeDigest({bias}), 0x427190f40f46bad1ull);
    EXPECT_EQ(bias.zeroTime(0), 192964u);
    EXPECT_EQ(bias.zeroTime(63), 192755u);
}

} // namespace
} // namespace penelope
