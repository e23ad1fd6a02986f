/**
 * @file
 * Tests for the register file: allocation lifecycle, occupancy and
 * bias accounting, the RINV/ISV mechanism and the replay driver.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "regfile/driver.hh"
#include "regfile/regfile.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

RegFileConfig
smallRf()
{
    RegFileConfig cfg;
    cfg.numEntries = 8;
    cfg.width = 16;
    return cfg;
}

TEST(RegFile, AllocateReleaseCycle)
{
    RegisterFile rf(smallRf());
    const int a = rf.allocate(1);
    ASSERT_GE(a, 0);
    EXPECT_TRUE(rf.isBusy(a));
    EXPECT_EQ(rf.busyCount(), 1u);
    rf.release(a, 5, true);
    EXPECT_FALSE(rf.isBusy(a));
    EXPECT_EQ(rf.busyCount(), 0u);
}

TEST(RegFile, ExhaustsFreeList)
{
    RegisterFile rf(smallRf());
    for (int i = 0; i < 8; ++i)
        EXPECT_GE(rf.allocate(1), 0);
    EXPECT_EQ(rf.allocate(1), -1);
}

TEST(RegFile, FifoRotation)
{
    // Entries must rotate evenly (FIFO free list), the property
    // that makes register tags self-balanced.
    RegisterFile rf(smallRf());
    const int first = rf.allocate(1);
    rf.release(first, 2, true);
    // Allocate the remaining 7 entries, then the recycled one.
    std::vector<int> got;
    for (int i = 0; i < 8; ++i)
        got.push_back(rf.allocate(3));
    // 'first' must come back last, not immediately.
    EXPECT_EQ(got.back(), first);
}

TEST(RegFile, OccupancyTimeWeighted)
{
    RegisterFile rf(smallRf());
    const int a = rf.allocate(0);
    rf.release(a, 50, true);
    // One of eight entries busy for 50 of 100 cycles.
    EXPECT_NEAR(rf.occupancy(100), 50.0 / (8 * 100), 1e-9);
}

TEST(RegFile, BiasTracksStoredValues)
{
    RegisterFile rf(smallRf());
    const int a = rf.allocate(0);
    rf.write(static_cast<unsigned>(a), Word(0xffff), 0);
    const BitBiasTracker &bias = rf.finalizeBias(10);
    // Entry a held ones for 10 cycles; others held zeros.
    EXPECT_DOUBLE_EQ(bias.zeroProbability(0), 7.0 / 8.0);
}

TEST(RegFile, RinvSamplesInvertedWrites)
{
    RegFileConfig cfg = smallRf();
    cfg.rinvSampleInterval = 1; // sample every write
    RegisterFile rf(cfg);
    const int a = rf.allocate(0);
    rf.write(static_cast<unsigned>(a), Word(0x00ff), 1);
    EXPECT_EQ(rf.rinv().lo(), 0xff00u);
}

TEST(RegFile, IsvWritesRinvAtRelease)
{
    RegFileConfig cfg = smallRf();
    cfg.rinvSampleInterval = 1;
    RegisterFile rf(cfg);
    rf.enableIsv(true);
    const int a = rf.allocate(0);
    rf.write(static_cast<unsigned>(a), Word(0x000f), 1);
    rf.release(static_cast<unsigned>(a), 2, true);
    EXPECT_EQ(rf.isvStats().updatesApplied, 1u);
    // The entry now holds the inverted sample; bias over the idle
    // period reflects it.
    const BitBiasTracker &bias = rf.finalizeBias(12);
    // Bit 0 over all 8 entries x 12 cycles: entry a spends one
    // cycle at 1 (busy value 0x000f) and the rest at 0; the seven
    // untouched entries hold zeros throughout.
    EXPECT_NEAR(bias.zeroProbability(0), 95.0 / 96.0, 1e-9);
}

TEST(RegFile, IsvDiscardedWithoutPort)
{
    RegisterFile rf(smallRf());
    rf.enableIsv(true);
    const int a = rf.allocate(0);
    rf.write(static_cast<unsigned>(a), Word(1), 1);
    rf.release(static_cast<unsigned>(a), 2, false);
    EXPECT_EQ(rf.isvStats().updatesDiscarded, 1u);
    EXPECT_EQ(rf.isvStats().updatesApplied, 0u);
}

TEST(RegFile, IsvMeterThrottlesAtBalance)
{
    // Once inverted residence leads, updates are skipped so entries
    // hold inverted contents ~50% of overall time.
    RegFileConfig cfg = smallRf();
    cfg.numEntries = 2;
    RegisterFile rf(cfg);
    rf.enableIsv(true);
    Cycle now = 0;
    std::uint64_t applied_then_skipped = 0;
    for (int round = 0; round < 200; ++round) {
        const int e = rf.allocate(now);
        ASSERT_GE(e, 0);
        rf.write(static_cast<unsigned>(e), Word(0), now);
        now += 1; // short busy
        rf.release(static_cast<unsigned>(e), now, true);
        now += 9; // long idle
    }
    applied_then_skipped = rf.isvStats().updatesSkipped;
    EXPECT_GT(applied_then_skipped, 0u);
    EXPECT_GT(rf.isvStats().updatesApplied, 0u);
}

TEST(RegFile, IsvBalancesBiasedStream)
{
    // The headline Figure-6 property on a synthetic biased stream.
    RegFileConfig cfg;
    cfg.numEntries = 32;
    cfg.width = 16;
    RegisterFile rf(cfg);
    rf.enableIsv(true);
    Rng rng(5);
    Cycle now = 0;
    std::vector<int> live;
    for (int i = 0; i < 20000; ++i) {
        ++now;
        const int e = rf.allocate(now);
        if (e >= 0) {
            // Heavily biased program values: mostly zero.
            rf.write(static_cast<unsigned>(e),
                     Word(rng.nextBool(0.9) ? 0x0001 : 0xffff),
                     now);
            live.push_back(e);
        }
        if (live.size() > 12) {
            rf.release(static_cast<unsigned>(live.front()), now,
                       rng.nextBool(0.92));
            live.erase(live.begin());
        }
    }
    const BitBiasTracker &bias = rf.finalizeBias(now);
    EXPECT_LT(bias.maxWorstCaseStress(), 0.62);
}

TEST(RegFile, BaselineStaysBiased)
{
    // Without ISV the same stream leaves cells heavily biased.
    RegFileConfig cfg;
    cfg.numEntries = 32;
    cfg.width = 16;
    RegisterFile rf(cfg);
    Rng rng(5);
    Cycle now = 0;
    std::vector<int> live;
    for (int i = 0; i < 20000; ++i) {
        ++now;
        const int e = rf.allocate(now);
        if (e >= 0) {
            rf.write(static_cast<unsigned>(e),
                     Word(rng.nextBool(0.9) ? 0x0001 : 0xffff),
                     now);
            live.push_back(e);
        }
        if (live.size() > 12) {
            rf.release(static_cast<unsigned>(live.front()), now,
                       true);
            live.erase(live.begin());
        }
    }
    const BitBiasTracker &bias = rf.finalizeBias(now);
    EXPECT_GT(bias.maxWorstCaseStress(), 0.8);
}

// ---------------------------------------------------------- Driver

TEST(RegReplay, RunsAndReportsOccupancy)
{
    WorkloadSet w;
    RegFileConfig cfg;
    cfg.numEntries = 128;
    cfg.width = 32;
    RegisterFile rf(cfg);
    RegFileReplay replay(rf, RegReplayConfig{});
    TraceGenerator gen = w.generator(0);
    const RegReplayResult r = replay.run(gen, 20000);
    EXPECT_EQ(r.cycles, 20000u);
    EXPECT_GT(r.writes, 5000u);
    EXPECT_GT(r.occupancy, 0.2);
    EXPECT_LT(r.occupancy, 0.9);
}

TEST(RegReplay, ClockPersistsAcrossRuns)
{
    WorkloadSet w;
    RegisterFile rf{RegFileConfig()};
    RegFileReplay replay(rf, RegReplayConfig{});
    TraceGenerator gen = w.generator(1);
    const RegReplayResult r1 = replay.run(gen, 5000);
    const RegReplayResult r2 = replay.run(gen, 5000);
    EXPECT_EQ(r1.cycles, 5000u);
    EXPECT_EQ(r2.cycles, 10000u);
}

TEST(RegReplay, FpModeUsesFpUopsOnly)
{
    WorkloadSet w;
    RegFileConfig cfg;
    cfg.numEntries = 64;
    cfg.width = 80;
    RegisterFile rf(cfg);
    RegReplayConfig rc;
    rc.fp = true;
    RegFileReplay replay(rf, rc);
    // SpecFP suite trace: plenty of FP writes.
    const auto fp_traces = w.indicesForSuite(SuiteId::SpecFp2000);
    TraceGenerator gen = w.generator(fp_traces.front());
    const RegReplayResult r = replay.run(gen, 20000);
    EXPECT_GT(r.writes, 1000u);
    EXPECT_LT(r.occupancy, 1.0);
}

TEST(RegReplay, IsvImprovesWorstStress)
{
    WorkloadSet w;
    auto run = [&](bool isv) {
        RegFileConfig cfg;
        cfg.numEntries = 128;
        cfg.width = 32;
        RegisterFile rf(cfg);
        rf.enableIsv(isv);
        RegFileReplay replay(rf, RegReplayConfig{});
        TraceGenerator gen = w.generator(2);
        const RegReplayResult r = replay.run(gen, 40000);
        return rf.finalizeBias(r.cycles).maxWorstCaseStress();
    };
    const double baseline = run(false);
    const double isv = run(true);
    EXPECT_GT(baseline, 0.75);
    EXPECT_LT(isv, 0.62);
}

// ------------------------------------------------ absolute anchors
//
// Literal accounting of fixed workload traces, so a change to the
// residence bookkeeping cannot pass by agreeing with itself.  The
// values are exact integers; they move only if a statistic moves,
// which also requires a kResultCacheSalt bump.

struct RegAnchor
{
    std::vector<std::uint64_t> zeroTimes;
    std::uint64_t totalTime = 0;
    IsvStats isv;
};

RegAnchor
replayAnchor(const RegFileConfig &cfg, const RegReplayConfig &rcfg,
             bool isv, unsigned trace, std::size_t num_uops)
{
    WorkloadSet w;
    RegisterFile rf(cfg);
    rf.enableIsv(isv);
    RegFileReplay replay(rf, rcfg);
    TraceGenerator gen = w.generator(trace);
    const RegReplayResult r = replay.run(gen, num_uops);
    const BitBiasTracker &bias = rf.finalizeBias(r.cycles);
    RegAnchor out;
    for (unsigned bit = 0; bit < bias.width(); ++bit)
        out.zeroTimes.push_back(bias.zeroTime(bit));
    out.totalTime = bias.totalTime();
    out.isv = rf.isvStats();
    return out;
}

/** FNV-1a over the little-endian bytes of every zero-time. */
std::uint64_t
zeroTimeDigest(const std::vector<std::uint64_t> &zero_times)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t v : zero_times) {
        for (unsigned k = 0; k < 8; ++k) {
            h ^= (v >> (8 * k)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

void
expectIsv(const IsvStats &s, std::uint64_t applied,
          std::uint64_t discarded, std::uint64_t skipped)
{
    EXPECT_EQ(s.updatesApplied, applied);
    EXPECT_EQ(s.updatesDiscarded, discarded);
    EXPECT_EQ(s.updatesSkipped, skipped);
}

TEST(RegFileAnchor, IntTracesPinned)
{
    // Default 32-bit INT-RF, trace 1, 4567 uops.
    const RegAnchor off = replayAnchor(RegFileConfig(),
                                       RegReplayConfig{}, false, 1,
                                       4567);
    EXPECT_EQ(off.totalTime, 584576u);
    EXPECT_EQ(off.zeroTimes,
              (std::vector<std::uint64_t>{
                  364718, 359015, 357959, 359620, 342626, 356169,
                  366751, 383980, 419955, 446891, 454605, 466301,
                  463092, 454500, 453122, 453200, 454908, 464540,
                  464700, 456982, 457424, 457964, 464433, 465589,
                  462957, 464728, 457440, 461250, 468003, 469991,
                  469964, 468525}));
    expectIsv(off.isv, 0, 0, 0);

    const RegAnchor on = replayAnchor(RegFileConfig(),
                                      RegReplayConfig{}, true, 1,
                                      4567);
    EXPECT_EQ(on.totalTime, 584576u);
    EXPECT_EQ(on.zeroTimes,
              (std::vector<std::uint64_t>{
                  325929, 321727, 319520, 310016, 323711, 329121,
                  284952, 302179, 319314, 331326, 344885, 333026,
                  349045, 347987, 338984, 356414, 339812, 348662,
                  344574, 351854, 348049, 346306, 336447, 336948,
                  337861, 344574, 332471, 353650, 348965, 341091,
                  349288, 350369}));
    expectIsv(on.isv, 2987, 255, 0);
}

TEST(RegFileAnchor, FpWideTracesPinned)
{
    // 80-bit FP-RF: bits 64..79 live in BitWord's high word, so the
    // high-bit slice is pinned literally next to the full digest.
    RegFileConfig cfg;
    cfg.name = "FP-RF";
    cfg.numEntries = 64;
    cfg.width = 80;
    RegReplayConfig rcfg;
    rcfg.fp = true;
    rcfg.portFreeProb = 0.86;

    const RegAnchor off = replayAnchor(cfg, rcfg, false, 2, 3000);
    EXPECT_EQ(off.totalTime, 192000u);
    EXPECT_EQ(zeroTimeDigest(off.zeroTimes), 0x15b3836e48dd9712ull);
    EXPECT_EQ(std::vector<std::uint64_t>(off.zeroTimes.begin() + 64,
                                         off.zeroTimes.end()),
              (std::vector<std::uint64_t>{
                  135709, 125000, 87319, 77942, 102488, 102488,
                  102488, 102488, 102488, 102488, 102488, 102488,
                  102488, 102488, 132577, 178935}));
    expectIsv(off.isv, 0, 0, 0);

    const RegAnchor on = replayAnchor(cfg, rcfg, true, 2, 3000);
    EXPECT_EQ(on.totalTime, 192000u);
    EXPECT_EQ(zeroTimeDigest(on.zeroTimes), 0x6170a33167dc5eb1ull);
    EXPECT_EQ(std::vector<std::uint64_t>(on.zeroTimes.begin() + 64,
                                         on.zeroTimes.end()),
              (std::vector<std::uint64_t>{
                  90274, 117824, 94932, 86185, 100064, 100064, 100064,
                  100064, 100064, 100064, 100064, 100064, 100064,
                  100064, 90269, 113240}));
    expectIsv(on.isv, 114, 14, 48);
}

} // namespace
} // namespace penelope
