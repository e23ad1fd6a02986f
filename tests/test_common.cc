/**
 * @file
 * Unit and property tests for the common library: RNG, statistics,
 * bit words, duty-cycle counters, slot pools and table rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <latch>
#include <set>
#include <vector>

#include "common/bitword.hh"
#include "common/duty.hh"
#include "common/rng.hh"
#include "common/slot_pool.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/threadpool.hh"

namespace penelope {
namespace {

// ------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, NextIntRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextInt(17), 17u);
}

TEST(Rng, NextIntCoversRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextInt(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliMeanConverges)
{
    Rng rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(23);
    RunningStats s;
    const double p = 0.125;
    for (int i = 0; i < 20000; ++i)
        s.add(static_cast<double>(rng.nextGeometric(p)));
    // Mean of failures-before-success = (1-p)/p = 7.
    EXPECT_NEAR(s.mean(), 7.0, 0.3);
}

TEST(Rng, GeometricWithPOneIsZero)
{
    Rng rng(29);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextGeometric(1.0), 0u);
}

/** The direct geometric quantile: what nextGeometric(p) returns
 *  for the next draw of @p rng, computed without any table. */
std::uint64_t
directGeometric(Rng &rng, double p)
{
    std::uint64_t m = 0;
    do {
        m = rng() >> 11;
    } while (m == 0);
    const double u = static_cast<double>(m) * 0x1.0p-53;
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log1p(-p)));
}

TEST(Rng, GeometricTablesMatchDirectFormula)
{
    // From the catalog's p values out to p small enough that most
    // draws land beyond the tables' 48 thresholds (the deep tail).
    const double ps[] = {0.999, 0.9, 0.5, 0.25, 0.125, 1.0 / 24.0,
                         1.0 / 96.0, 0.01, 0.002};
    for (const double p : ps) {
        Rng rng(0x6e0);
        Rng twin(0x6e0);
        std::uint64_t tail = 0;
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t want = directGeometric(twin, p);
            tail += want >= 48;
            ASSERT_EQ(rng.nextGeometric(p), want)
                << "p " << p << " draw " << i;
        }
        if (p <= 0.01) {
            EXPECT_GT(tail, 1000u) << "p " << p;
        }
    }
}

TEST(Rng, GeometricInterleavedPValues)
{
    // One Rng cycling through four p values, then five: the second
    // loop outnumbers the per-Rng memo, which must evict and refetch.
    const double ps[] = {1.0 / 128.0, 0.125, 1.0 / 24.0, 0.3, 0.7};
    Rng rng(0x17e);
    Rng twin(0x17e);
    for (const unsigned count : {4u, 5u}) {
        for (unsigned i = 0; i < 20000; ++i) {
            const double p = ps[i % count];
            ASSERT_EQ(rng.nextGeometric(p), directGeometric(twin, p))
                << count << " values, draw " << i;
        }
    }
}

TEST(Rng, GeometricSharedTableConcurrentFirstUse)
{
    // Eight pool workers touch a p no other test uses at the same
    // moment: the one shared table they race to build must serve
    // each of them the identical stream.
    constexpr unsigned kWorkers = 8;
    const double p = 0.0123456789;
    std::vector<std::vector<std::uint64_t>> streams(kWorkers);
    std::latch start(kWorkers);
    {
        ThreadPool pool(kWorkers);
        for (unsigned t = 0; t < kWorkers; ++t) {
            pool.submit([&, t] {
                Rng rng(0xc0c0);
                start.arrive_and_wait();
                for (int i = 0; i < 2000; ++i)
                    streams[t].push_back(rng.nextGeometric(p));
            });
        }
        pool.wait();
    }
    Rng twin(0xc0c0);
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(streams[0][i], directGeometric(twin, p));
    for (unsigned t = 1; t < kWorkers; ++t)
        EXPECT_EQ(streams[t], streams[0]) << "worker " << t;
}

TEST(Rng, StaysSmall)
{
    // Generators, replays and caches each embed Rngs; the geometric
    // tables are shared by pointer, never embedded.
    EXPECT_LE(sizeof(Rng), 104u);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(37);
    ZipfTable table(64, 1.0);
    std::vector<int> counts(64, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[table.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[1], counts[40]);
}

TEST(Zipf, AllRanksInRange)
{
    Rng rng(41);
    ZipfTable table(10, 0.8);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(table.sample(rng), 10u);
}

// ----------------------------------------------------------- Stats

TEST(RunningStats, Empty)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined)
{
    RunningStats a;
    RunningStats b;
    RunningStats all;
    Rng rng(43);
    for (int i = 0; i < 500; ++i) {
        const double v = rng.nextDouble() * 3 + 1;
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a;
    a.add(3.0);
    RunningStats b;
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(CategoryCounter, FractionsSumToOne)
{
    CategoryCounter c(4);
    c.add(0, 10);
    c.add(1, 20);
    c.add(3, 70);
    double total = 0;
    for (std::size_t i = 0; i < c.categories(); ++i)
        total += c.fraction(i);
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(c.fraction(3), 0.7);
}

// -------------------------------------------------------- SlotPool

TEST(SlotPool, FifoOrderAcrossWrapAround)
{
    // Released slots rejoin at the tail; a deque is the reference.
    // 2,000 operations on 5 slots wrap the ring many times.
    SlotPool pool(5);
    std::deque<unsigned> free_list = {0, 1, 2, 3, 4};
    std::vector<unsigned> busy;
    Rng rng(17);
    for (Cycle now = 1; now <= 2000; ++now) {
        if (!busy.empty() && (free_list.empty() || rng.nextBool(0.5))) {
            const std::size_t i = rng.nextInt(busy.size());
            pool.release(busy[i], now);
            free_list.push_back(busy[i]);
            busy.erase(busy.begin() + static_cast<long>(i));
        } else {
            const int slot = pool.allocate(now);
            ASSERT_EQ(slot, static_cast<int>(free_list.front()));
            free_list.pop_front();
            busy.push_back(static_cast<unsigned>(slot));
        }
        ASSERT_EQ(pool.busyCount(), busy.size());
    }
}

TEST(SlotPool, AllocateOnFullPoolFails)
{
    SlotPool pool(3);
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_EQ(pool.allocate(i), static_cast<int>(i));
    EXPECT_TRUE(pool.full());
    EXPECT_EQ(pool.allocate(3), -1);
    EXPECT_EQ(pool.busyCount(), 3u);
    pool.release(1, 4);
    EXPECT_FALSE(pool.isBusy(1));
    EXPECT_EQ(pool.allocate(5), 1);
    EXPECT_EQ(pool.allocate(6), -1);
}

TEST(SlotPool, OccupancyIsTheBusyTimeIntegral)
{
    // Busy count 1 on [0,2), 2 on [2,5), 3 on [5,6), 2 from 6 on.
    SlotPool pool(4);
    pool.allocate(0);
    pool.allocate(2);
    pool.allocate(5);
    pool.release(0, 6);
    EXPECT_EQ(pool.busyIntegral(), 2.0 + 6.0 + 3.0);
    // Between flushes the span since the last one is added.
    EXPECT_EQ(pool.occupancy(8), (11.0 + 4.0) / (4.0 * 8.0));
    EXPECT_EQ(pool.occupancy(10), (11.0 + 8.0) / (4.0 * 10.0));
    pool.flush(10);
    EXPECT_EQ(pool.busyIntegral(), 19.0);
    EXPECT_EQ(pool.occupancy(0), 0.0);
}

// --------------------------------------------------------- BitWord

TEST(BitWord, ZeroConstruction)
{
    BitWord w(80);
    EXPECT_EQ(w.width(), 80u);
    EXPECT_EQ(w.popcount(), 0u);
    for (unsigned i = 0; i < 80; ++i)
        EXPECT_FALSE(w.bit(i));
}

TEST(BitWord, MasksToWidth)
{
    BitWord w(8, 0xfff);
    EXPECT_EQ(w.lo(), 0xffu);
    EXPECT_EQ(w.popcount(), 8u);
}

TEST(BitWord, HighBitsAccess)
{
    BitWord w(80, 0, 0x8001);
    EXPECT_TRUE(w.bit(64));
    EXPECT_TRUE(w.bit(79));
    EXPECT_FALSE(w.bit(70));
    EXPECT_FALSE(w.bit(0));
}

TEST(BitWord, SetBit)
{
    BitWord w(128);
    w.setBit(0, true);
    w.setBit(64, true);
    w.setBit(127, true);
    EXPECT_EQ(w.popcount(), 3u);
    w.setBit(64, false);
    EXPECT_EQ(w.popcount(), 2u);
    EXPECT_FALSE(w.bit(64));
}

TEST(BitWord, InvertedIsInvolution)
{
    Rng rng(47);
    for (unsigned width : {1u, 7u, 32u, 64u, 80u, 128u}) {
        BitWord w(width, rng(), rng());
        EXPECT_EQ(w.inverted().inverted(), w);
        EXPECT_EQ(w.popcount() + w.inverted().popcount(), width);
    }
}

TEST(BitWord, InvertedFlipsEveryBit)
{
    BitWord w(80, 0x123456789abcdefULL, 0x55);
    const BitWord inv = w.inverted();
    for (unsigned i = 0; i < 80; ++i)
        EXPECT_NE(w.bit(i), inv.bit(i));
}

TEST(BitWord, ToStringMsbFirst)
{
    BitWord w(4, 0b1010);
    EXPECT_EQ(w.toString(), "1010");
}

// ------------------------------------------------------------ Duty

TEST(DutyCycle, NeverObservedIsHalf)
{
    DutyCycleCounter c;
    EXPECT_DOUBLE_EQ(c.zeroProbability(), 0.5);
}

TEST(DutyCycle, ZeroProbability)
{
    DutyCycleCounter c;
    c.observe(false, 3);
    c.observe(true, 1);
    EXPECT_DOUBLE_EQ(c.zeroProbability(), 0.75);
    EXPECT_DOUBLE_EQ(c.oneProbability(), 0.25);
}

TEST(DutyCycle, WorstCaseStressFolds)
{
    DutyCycleCounter c;
    c.observe(true, 9);
    c.observe(false, 1);
    EXPECT_DOUBLE_EQ(c.zeroProbability(), 0.1);
    EXPECT_DOUBLE_EQ(c.worstCaseStress(), 0.9);
}

TEST(DutyCycle, Merge)
{
    DutyCycleCounter a;
    DutyCycleCounter b;
    a.observe(false, 10);
    b.observe(true, 10);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.zeroProbability(), 0.5);
    EXPECT_EQ(a.totalTime(), 20u);
}

TEST(BitBias, TracksPerBit)
{
    BitBiasTracker t(4);
    t.observe(Word(0b0011), 1);
    t.observe(Word(0b0001), 1);
    EXPECT_DOUBLE_EQ(t.zeroProbability(0), 0.0);
    EXPECT_DOUBLE_EQ(t.zeroProbability(1), 0.5);
    EXPECT_DOUBLE_EQ(t.zeroProbability(2), 1.0);
    EXPECT_DOUBLE_EQ(t.maxZeroProbability(), 1.0);
    EXPECT_DOUBLE_EQ(t.minZeroProbability(), 0.0);
    EXPECT_DOUBLE_EQ(t.maxWorstCaseStress(), 1.0);
}

TEST(BitBias, TimeWeighting)
{
    BitBiasTracker t(1);
    t.observe(Word(1), 3);
    t.observe(Word(0), 1);
    EXPECT_DOUBLE_EQ(t.zeroProbability(0), 0.25);
}

TEST(BitBias, WideValues)
{
    BitBiasTracker t(80);
    BitWord w(80);
    w.setBit(79, true);
    t.observe(w, 1);
    EXPECT_DOUBLE_EQ(t.zeroProbability(79), 0.0);
    EXPECT_DOUBLE_EQ(t.zeroProbability(0), 1.0);
}

TEST(BitBias, MergeAndReset)
{
    BitBiasTracker a(2);
    BitBiasTracker b(2);
    a.observe(Word(0b01), 1);
    b.observe(Word(0b10), 1);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.zeroProbability(0), 0.5);
    EXPECT_DOUBLE_EQ(a.zeroProbability(1), 0.5);
    a.reset();
    EXPECT_DOUBLE_EQ(a.zeroProbability(0), 0.5); // unobserved
    EXPECT_EQ(a.counter(0).totalTime(), 0u);
}

// ----------------------------------------------------------- Table

TEST(TextTable, RendersAllCells)
{
    TextTable t({"a", "bb"});
    t.addRow({"x", "y"});
    t.addSeparator();
    t.addRow({"long-cell", "z"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("long-cell"), std::string::npos);
    EXPECT_NE(out.find("z"), std::string::npos);
    EXPECT_EQ(t.rows(), 3u); // separator counts as a row record
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(TextTable::pct(0.1234, 1), "12.3%");
    EXPECT_EQ(TextTable::num(1.5, 2), "1.50");
    EXPECT_EQ(TextTable::count(42), "42");
}

} // namespace
} // namespace penelope
