/**
 * @file
 * Batched-vs-scalar replay identity suites.
 *
 * The scheduler and cache replay drivers accumulate slot/line images
 * into 64-record batches and fold them with one transposed drain;
 * the scalar path charges the accumulators on every event.  Both
 * paths add the identical modular integers in a different order, so
 * every derived statistic -- and the RNG draw stream, since the
 * trackers feed no mid-run decision -- must match bit for bit.
 * These suites assert exactly that over random workload traces,
 * with protection and ISV on and off, across partial final batches,
 * mid-run reader folds, mid-run mode toggles, and snapshot merge
 * interleavings.  (The register file charges eagerly; its absolute
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

void
expectResultsEqual(const SchedReplayResult &a,
                   const SchedReplayResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.allocated, b.allocated);
    EXPECT_EQ(a.released, b.released);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.occupancy, b.occupancy);
}

// ------------------------------------------------------- scheduler

/** Replay @p num_uops of workload trace @p trace against a fresh
 *  scheduler in the requested accounting mode and snapshot it. */
SchedulerStress
runScheduler(bool batched, unsigned trace, std::size_t num_uops,
             bool protect, SchedReplayResult *result = nullptr)
{
    WorkloadSet w;
    Scheduler sched{SchedulerConfig{}};
    sched.setBatchedAccounting(batched);
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

TEST(SchedulerReplayBatch, RandomTracesMatchScalar)
{
    // Uop counts straddle batch boundaries (partial final batches,
    // exactly-full batches, multi-batch runs).
    const std::size_t counts[] = {63, 64, 777, 4096, 5001};
    unsigned trace = 0;
    for (const std::size_t uops : counts) {
        SchedReplayResult rb, rs;
        const SchedulerStress batched =
            runScheduler(true, trace, uops, false, &rb);
        const SchedulerStress scalar =
            runScheduler(false, trace, uops, false, &rs);
        expectResultsEqual(rb, rs);
        expectStressEqual(batched, scalar);
        trace = (trace + 1) % 4;
    }
}

TEST(SchedulerReplayBatch, ProtectionAndIsvOnMatchScalar)
{
    // Protection exercises the repair/ISV write paths, whose
    // decision stream (and RNG draws) must be batching-independent.
    SchedReplayResult rb, rs;
    const SchedulerStress batched =
        runScheduler(true, 2, 3000, true, &rb);
    const SchedulerStress scalar =
        runScheduler(false, 2, 3000, true, &rs);
    expectResultsEqual(rb, rs);
    expectStressEqual(batched, scalar);
}

TEST(SchedulerReplayBatch, MidRunReadsFoldPendingBatch)
{
    // Mid-run statistic reads force a fold of the pending batch
    // (including deferred releases); the values read and the final
    // state must both match the scalar path.
    WorkloadSet w;
    Scheduler batched{SchedulerConfig{}};
    Scheduler scalar{SchedulerConfig{}};
    scalar.setBatchedAccounting(false);
    SchedulerReplay rb(batched, SchedReplayConfig{});
    SchedulerReplay rs(scalar, SchedReplayConfig{});
    TraceGenerator gb = w.generator(1);
    TraceGenerator gs = w.generator(1);

    for (int leg = 0; leg < 3; ++leg) {
        const SchedReplayResult b = rb.run(gb, 997);
        const SchedReplayResult s = rs.run(gs, 997);
        expectResultsEqual(b, s);
        EXPECT_EQ(batched.occupancy(b.cycles),
                  scalar.occupancy(s.cycles));
        EXPECT_EQ(batched.fieldOccupancy(FieldId::Src1Data, b.cycles),
                  scalar.fieldOccupancy(FieldId::Src1Data, s.cycles));
        EXPECT_EQ(batched.biasVector(b.cycles),
                  scalar.biasVector(s.cycles));
    }
    expectStressEqual(batched.snapshotStress(rb.run(gb, 100).cycles),
                      scalar.snapshotStress(rs.run(gs, 100).cycles));
}

TEST(SchedulerReplayBatch, MidRunToggleDrainsAndMatches)
{
    // Flipping the accounting mode mid-run drains the pending batch
    // and must leave no trace in the statistics.
    WorkloadSet w;
    Scheduler toggled{SchedulerConfig{}};
    Scheduler scalar{SchedulerConfig{}};
    scalar.setBatchedAccounting(false);
    SchedulerReplay rt(toggled, SchedReplayConfig{});
    SchedulerReplay rs(scalar, SchedReplayConfig{});
    TraceGenerator gt = w.generator(3);
    TraceGenerator gs = w.generator(3);

    Cycle t_end = 0, s_end = 0;
    bool mode = true;
    for (int leg = 0; leg < 4; ++leg) {
        toggled.setBatchedAccounting(mode);
        mode = !mode;
        t_end = rt.run(gt, 511).cycles;
        s_end = rs.run(gs, 511).cycles;
    }
    expectStressEqual(toggled.snapshotStress(t_end),
                      scalar.snapshotStress(s_end));
}

TEST(SchedulerReplayBatch, MergeOrderInterleavings)
{
    // Snapshots from batched and scalar runs of different traces
    // must merge to the same aggregate in either interleaving
    // (mixed-mode merging is what the sharded experiment engine
    // does when workers disagree only in accounting mode).
    const SchedulerStress a_b = runScheduler(true, 0, 1500, false);
    const SchedulerStress a_s = runScheduler(false, 0, 1500, false);
    const SchedulerStress b_b = runScheduler(true, 1, 2111, false);
    const SchedulerStress b_s = runScheduler(false, 1, 2111, false);

    SchedulerStress m1 = a_b;
    m1.merge(b_s);
    SchedulerStress m2 = a_s;
    m2.merge(b_b);
    expectStressEqual(m1, m2);

    SchedulerStress m3 = b_b;
    m3.merge(a_b);
    // merge() sums commutative integers, so even the reversed
    // interleaving agrees.
    expectStressEqual(m3, m1);
}

// ---------------------------------------------------------- cache

TEST(CacheReplayBatch, AccessStreamsMatchScalar)
{
    // Random access streams over a small cache, with enough misses
    // to rotate line images (dt > 1 residencies throughout) and a
    // final partial batch.
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024;
    cfg.ways = 4;
    Cache batched(cfg);
    Cache scalar(cfg);
    scalar.setBatchedAccounting(false);

    Rng rng(0xcac4e);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr =
            static_cast<Addr>(rng.nextInt(1 << 14)) & ~Addr(7);
        const bool is_write = rng.nextBool(0.3);
        const Word data = rng();
        now += 1 + rng.nextInt(3);
        batched.access(addr, is_write, now, data);
        scalar.access(addr, is_write, now, data);
    }
    EXPECT_EQ(batched.hits(), scalar.hits());
    EXPECT_EQ(batched.misses(), scalar.misses());
    expectTrackersEqual(batched.finalizeDataBias(now),
                        scalar.finalizeDataBias(now));
}

TEST(CacheReplayBatch, InvertedLinesMatchScalar)
{
    // Line inversions rewrite images mid-residence; the batched
    // accounting must charge the pre-inversion image identically.
    // Both caches consume one pre-recorded access stream, so their
    // inputs (and their internal victim-pick draws: same per-cache
    // seed, same call sequence) are identical.
    struct Access
    {
        Addr addr;
        bool write;
        Word data;
        Cycle at;
    };
    std::vector<Access> stream;
    Rng gen(0x90ff);
    Cycle t = 0;
    for (int i = 0; i < 8000; ++i) {
        t += 1 + gen.nextInt(2);
        stream.push_back({static_cast<Addr>(gen.nextInt(1 << 13)) &
                              ~Addr(7),
                          gen.nextBool(0.25), gen(), t});
    }
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 1024;
    cfg.ways = 2;
    Cache cb(cfg);
    Cache cs(cfg);
    cs.setBatchedAccounting(false);
    unsigned inversions = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Access &a = stream[i];
        cb.access(a.addr, a.write, a.at, a.data);
        cs.access(a.addr, a.write, a.at, a.data);
        if ((i & 255) == 255) {
            const unsigned set =
                static_cast<unsigned>(i / 256) % cb.numSets();
            const bool ib = cb.invertLruLineOfSet(set, a.at);
            const bool is = cs.invertLruLineOfSet(set, a.at);
            EXPECT_EQ(ib, is);
            inversions += ib ? 1u : 0u;
        }
    }
    EXPECT_GT(inversions, 0u);
    EXPECT_EQ(cb.hits(), cs.hits());
    EXPECT_EQ(cb.misses(), cs.misses());
    const Cycle end = stream.back().at;
    expectTrackersEqual(cb.finalizeDataBias(end),
                        cs.finalizeDataBias(end));
}

} // namespace
} // namespace penelope
