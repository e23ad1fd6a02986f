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
 * anchors live in test_regfile.cc.)  Both replays' streamed feeds
 * are held to one run() over the same uops, for any chunking, and
 * to the same results on the address-free replay trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/timing.hh"
#include "common/rng.hh"
#include "core/serialize.hh"
#include "regfile/driver.hh"
#include "scheduler/driver.hh"
#include "scheduler/profile.hh"
#include "scheduler/scheduler.hh"
#include "trace/attack.hh"
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
        EXPECT_EQ(every.snapshotStress(now).biasVector().size(),
                  fieldLayout().totalBits());
        if (leg == 1) {
            EXPECT_EQ(once.snapshotStress(now).bitProfiles().size(),
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
    // A random access stream over a small cache with many misses.
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024;
    cfg.ways = 4;
    Cache cache(cfg);

    Rng rng(0xcac4e);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr =
            static_cast<Addr>(rng.nextInt(1 << 14)) & ~Addr(7);
        rng();
        rng(); // the stream's former write flag and data word
        now += 1 + rng.nextInt(3);
        cache.access(addr, now);
    }
    EXPECT_EQ(now, 39950u);
    EXPECT_EQ(cache.hits(), 4986u);
    EXPECT_EQ(cache.misses(), 15014u);
}

TEST(CacheReplayBatch, InvertedLinesMatchScalar)
{
    // Line inversions between accesses: an inverted line is refilled
    // only through a miss.
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
        gen();
        gen(); // the stream's former write flag and data word
        cache.access(addr, t);
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
}

// --------------------------------------------------- streamed feeds
//
// A replay fed its stream in chunks of any size must end exactly
// where one run() over the same uops ends: the streamed trace pass
// (Engine::streamCached) relies on it.  The comparison covers every
// result counter and the cached payload bytes.

template <class T>
std::string
payloadBytes(const T &value)
{
    ByteWriter w;
    encodeResult(w, value);
    return std::string(w.view());
}

/** Feed @p uops to @p replay in chunks of @p chunk uops. */
template <class Replay>
void
feedInChunks(Replay &replay, const std::vector<Uop> &uops,
             std::size_t chunk)
{
    for (std::size_t i = 0; i < uops.size(); i += chunk)
        replay.feed(uops.data() + i, std::min(chunk, uops.size() - i));
}

/** @p n uops of @p source, in order. */
template <class Source>
std::vector<Uop>
takeUops(Source source, std::size_t n)
{
    std::vector<Uop> uops(n);
    for (Uop &uop : uops)
        uop = source.next();
    return uops;
}

/** Chunk sizes around one and the 64-wide wheel and batch words. */
std::vector<std::size_t>
chunkSizes(std::size_t n)
{
    return {1, 2, 3, 63, 64, 65, 1024, n};
}

void
expectSameCounters(const SchedReplayResult &a, const SchedReplayResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.allocated, b.allocated);
    EXPECT_EQ(a.released, b.released);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.occupancy, b.occupancy);
}

void
expectSameCounters(const RegReplayResult &a, const RegReplayResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.releases, b.releases);
    EXPECT_EQ(a.forcedReleases, b.forcedReleases);
    EXPECT_EQ(a.occupancy, b.occupancy);
    EXPECT_EQ(a.freeFraction, b.freeFraction);
}

/** A fresh scheduler and its replay, protected when @p decisions is
 *  set. */
struct SchedUnderTest
{
    SchedUnderTest(const std::vector<BitDecision> *decisions,
                   const SchedReplayConfig &config)
        : replay(sched, config)
    {
        if (decisions) {
            sched.configureProtection(*decisions);
            sched.enableProtection(true);
        }
    }

    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay;
};

/** Compare chunked feeds of @p uops against one run() over
 *  @p source (which yields the same uops). */
template <class Source>
void
expectSchedFeedsMatchRun(Source source, const std::vector<Uop> &uops,
                         const std::vector<BitDecision> *decisions,
                         const SchedReplayConfig &config)
{
    SchedUnderTest ref(decisions, config);
    const SchedReplayResult r = ref.replay.run(source, uops.size());
    const std::string bytes =
        payloadBytes(ref.sched.snapshotStress(r.cycles));
    for (const std::size_t chunk : chunkSizes(uops.size())) {
        SCOPED_TRACE(::testing::Message() << "chunk " << chunk);
        SchedUnderTest t(decisions, config);
        feedInChunks(t.replay, uops, chunk);
        const SchedReplayResult fed = t.replay.result();
        expectSameCounters(fed, r);
        EXPECT_EQ(payloadBytes(t.sched.snapshotStress(fed.cycles)),
                  bytes);
    }
}

TEST(StreamedFeed, SchedulerChunksMatchRun)
{
    // arrivalRate 4 keeps the scheduler saturated, so stalls and
    // cycles left open by a chunk's last uop land on chunk edges.
    WorkloadSet w;
    const auto decisions =
        decideProtection(profileScheduler(w, {4}, 4000).bits);
    for (const bool protect : {false, true}) {
        for (const double rate : {2.5, 4.0}) {
            SCOPED_TRACE(::testing::Message()
                         << "protect " << protect << " rate " << rate);
            SchedReplayConfig config;
            config.arrivalRate = rate;
            const std::vector<Uop> uops = takeUops(w.generator(4), 3001);
            expectSchedFeedsMatchRun(w.generator(4), uops,
                                     protect ? &decisions : nullptr,
                                     config);
        }
    }
}

TEST(StreamedFeed, SchedulerAttackSourceChunksMatchRun)
{
    WorkloadSet w;
    const auto decisions =
        decideProtection(profileScheduler(w, {4}, 4000).bits);
    AttackConfig attack;
    attack.dataValue = 0xaaaaaaaaULL;
    SchedReplayConfig config;
    config.arrivalRate = 4.0;
    const std::vector<Uop> uops =
        takeUops(AttackTraceGenerator(attack), 2500);
    for (const bool protect : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "protect " << protect);
        expectSchedFeedsMatchRun(AttackTraceGenerator(attack), uops,
                                 protect ? &decisions : nullptr,
                                 config);
    }
}

TEST(StreamedFeed, SchedulerStreamsContinueTheClock)
{
    // Two streams back to back: the clock carries over and each
    // result() reports the counters of its own stream only.
    WorkloadSet w;
    SchedReplayConfig config;
    config.arrivalRate = 4.0;
    SchedUnderTest ref(nullptr, config);
    TraceGenerator gen = w.generator(6);
    const SchedReplayResult r1 = ref.replay.run(gen, 1500);
    const SchedReplayResult r2 = ref.replay.run(gen, 1700);
    EXPECT_EQ(r1.allocated, 1500u);
    EXPECT_EQ(r2.allocated, 1700u);
    EXPECT_GT(r2.cycles, r1.cycles);

    const std::vector<Uop> uops = takeUops(w.generator(6), 3200);
    SchedUnderTest t(nullptr, config);
    feedInChunks(t.replay, {uops.begin(), uops.begin() + 1500}, 64);
    expectSameCounters(t.replay.result(), r1);
    feedInChunks(t.replay, {uops.begin() + 1500, uops.end()}, 65);
    expectSameCounters(t.replay.result(), r2);
    EXPECT_EQ(payloadBytes(t.sched.snapshotStress(r2.cycles)),
              payloadBytes(ref.sched.snapshotStress(r2.cycles)));
}

/** A fresh register file and its replay. */
struct RegFileUnderTest
{
    RegFileUnderTest(bool fp, bool isv)
        : rf(config(fp)), replay(rf, replayConfig(fp))
    {
        rf.enableIsv(isv);
    }

    static RegFileConfig
    config(bool fp)
    {
        RegFileConfig cfg;
        cfg.numEntries = fp ? 64 : 128;
        cfg.width = fp ? 80 : 32;
        return cfg;
    }

    static RegReplayConfig
    replayConfig(bool fp)
    {
        RegReplayConfig cfg;
        cfg.fp = fp;
        return cfg;
    }

    /** Payload bytes of the bias and the ISV counters. */
    std::string
    state(Cycle now)
    {
        return payloadBytes(rf.finalizeBias(now)) +
            payloadBytes(rf.isvStats());
    }

    RegisterFile rf;
    RegFileReplay replay;
};

template <class Source>
void
expectRegFileFeedsMatchRun(Source source, const std::vector<Uop> &uops,
                           bool fp, bool isv)
{
    RegFileUnderTest ref(fp, isv);
    const RegReplayResult r = ref.replay.run(source, uops.size());
    const std::string bytes = ref.state(r.cycles);
    for (const std::size_t chunk : chunkSizes(uops.size())) {
        SCOPED_TRACE(::testing::Message() << "chunk " << chunk);
        RegFileUnderTest t(fp, isv);
        feedInChunks(t.replay, uops, chunk);
        const RegReplayResult fed = t.replay.result();
        expectSameCounters(fed, r);
        EXPECT_EQ(t.state(fed.cycles), bytes);
    }
}

TEST(StreamedFeed, RegFileChunksMatchRun)
{
    WorkloadSet w;
    const unsigned trace = w.indicesForSuite(SuiteId::SpecFp2000).front();
    const std::vector<Uop> uops = takeUops(w.generator(trace), 3001);
    for (const bool fp : {false, true}) {
        for (const bool isv : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "fp " << fp << " isv " << isv);
            expectRegFileFeedsMatchRun(w.generator(trace), uops, fp,
                                       isv);
        }
    }
}

TEST(StreamedFeed, RegFileAttackSourceChunksMatchRun)
{
    AttackConfig attack;
    attack.dataValue = 0xffffffffULL;
    attack.hotRegs = 4;
    const std::vector<Uop> uops =
        takeUops(AttackTraceGenerator(attack), 2500);
    for (const bool isv : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "isv " << isv);
        expectRegFileFeedsMatchRun(AttackTraceGenerator(attack), uops,
                                   false, isv);
    }
}

TEST(StreamedFeed, RegFileStreamsAccumulate)
{
    // Two streams back to back: the clock carries over and the
    // counters accumulate across them.
    WorkloadSet w;
    RegFileUnderTest ref(false, true);
    TraceGenerator gen = w.generator(6);
    const RegReplayResult r1 = ref.replay.run(gen, 1500);
    const RegReplayResult r2 = ref.replay.run(gen, 1700);
    EXPECT_EQ(r2.cycles, 3200u);
    EXPECT_GT(r2.writes, r1.writes);

    const std::vector<Uop> uops = takeUops(w.generator(6), 3200);
    RegFileUnderTest t(false, true);
    feedInChunks(t.replay, {uops.begin(), uops.begin() + 1500}, 64);
    expectSameCounters(t.replay.result(), r1);
    feedInChunks(t.replay, {uops.begin() + 1500, uops.end()}, 65);
    expectSameCounters(t.replay.result(), r2);
    EXPECT_EQ(t.state(r2.cycles), ref.state(r2.cycles));
}

// ---------------------------------------------------- replay traces
//
// The scheduler and register-file replays never read Uop::addr, so
// they run on WorkloadSet::replayGenerator, which skips the address
// stream.  Every other field, and with it every replay result, must
// equal the full trace's; the memory timing model keeps the full
// generator.

/** Every Uop field except addr. */
void
expectSameButAddr(const Uop &a, const Uop &b)
{
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.port, b.port);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.mobId, b.mobId);
    EXPECT_EQ(a.tos, b.tos);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.shift1, b.shift1);
    EXPECT_EQ(a.shift2, b.shift2);
    EXPECT_EQ(a.dstReg, b.dstReg);
    EXPECT_EQ(a.srcReg1, b.srcReg1);
    EXPECT_EQ(a.srcReg2, b.srcReg2);
    EXPECT_EQ(a.srcVal1, b.srcVal1);
    EXPECT_EQ(a.srcVal2, b.srcVal2);
    EXPECT_EQ(a.imm, b.imm);
    EXPECT_EQ(a.hasImm, b.hasImm);
    EXPECT_EQ(a.dstVal, b.dstVal);
    EXPECT_EQ(a.dstValHi, b.dstValHi);
    EXPECT_EQ(a.opcode, b.opcode);
}

TEST(ReplayTrace, EqualsFullTraceButAddr)
{
    const WorkloadSet w;
    for (const unsigned index : w.firstPerSuite()) {
        SCOPED_TRACE(::testing::Message() << "trace " << index);
        const std::vector<Uop> full = takeUops(w.generator(index),
                                               20'000);
        const std::vector<Uop> replay =
            takeUops(w.replayGenerator(index), 20'000);
        std::size_t addressed = 0;
        for (std::size_t i = 0; i < full.size(); ++i) {
            expectSameButAddr(full[i], replay[i]);
            ASSERT_EQ(replay[i].addr, 0u) << "uop " << i;
            addressed += full[i].addr != 0;
        }
        EXPECT_GT(addressed, 0u);
    }
}

TEST(ReplayTrace, ReplaysMatchTheFullTrace)
{
    const WorkloadSet w;
    const auto decisions =
        decideProtection(profileScheduler(w, {4}, 4000).bits);
    for (const unsigned index : {0u, 200u, 500u}) {
        SCOPED_TRACE(::testing::Message() << "trace " << index);
        for (const bool protect : {false, true}) {
            SchedulerPass full(SchedReplayConfig{}, decisions, {protect});
            SchedulerPass replay(SchedReplayConfig{}, decisions,
                                 {protect});
            TraceGenerator full_gen = w.generator(index);
            TraceGenerator replay_gen = w.replayGenerator(index);
            streamChunks(full_gen, 5000,
                         [&](const Uop *u, std::size_t n) {
                             full.feed(u, n);
                         });
            streamChunks(replay_gen, 5000,
                         [&](const Uop *u, std::size_t n) {
                             replay.feed(u, n);
                         });
            EXPECT_EQ(payloadBytes(replay.results().front()),
                      payloadBytes(full.results().front()));
        }
        for (const bool fp : {false, true}) {
            RegFileUnderTest full(fp, true);
            RegFileUnderTest replay(fp, true);
            TraceGenerator full_gen = w.generator(index);
            TraceGenerator replay_gen = w.replayGenerator(index);
            const RegReplayResult r = full.replay.run(full_gen, 5000);
            expectSameCounters(replay.replay.run(replay_gen, 5000), r);
            EXPECT_EQ(replay.state(r.cycles), full.state(r.cycles));
        }
    }
}

TEST(ReplayTrace, MemoryTimingNeedsTheFullTrace)
{
    // The address-free stream would collapse the DL0 and DTLB onto
    // one line; MemTimingSim fed the full trace sees its addresses.
    const WorkloadSet w;
    const auto run = [](TraceGenerator gen) {
        MemTimingSim sim(CacheConfig{}, CacheConfig::tlb(128, 8),
                         MemTimingParams{}, MechanismKind::None,
                         MechanismKind::None);
        sim.run(gen, 10'000);
        return sim.dl0().misses();
    };
    EXPECT_GT(run(w.generator(7)), 100u);
    EXPECT_LE(run(w.replayGenerator(7)), 1u);
}

} // namespace
} // namespace penelope
