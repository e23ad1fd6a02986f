/**
 * @file
 * Tests for the content-addressed result cache: key construction,
 * payload codecs (round-trip and corruption rejection), the
 * disk-backed store's treat-anything-broken-as-a-miss contract,
 * and the end-to-end properties the experiment engine depends on
 * -- cold == warm == uncached statistics at any worker count, no
 * cross-options poisoning, and shard/merge reassembly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cache/timing.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/engine.hh"
#include "core/experiments.hh"
#include "core/resultcache.hh"
#include "core/serialize.hh"
#include "fuzz.hh"
#include "scheduler/driver.hh"
#include "scheduler/profile.hh"
#include "trace/attack.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

/** Fresh temp directory per test. */
std::string
tempDir(const char *name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        (std::string("penelope_rc_") + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** Small, fast experiment options (cache/jobs default off). */
ExperimentOptions
fastOptions()
{
    ExperimentOptions options;
    options.traceStride = 96;
    options.uopsPerTrace = 2'000;
    options.cacheUops = 2'000;
    options.adderOperandSamples = 400;
    return options;
}

// --------------------------------------------------- key building

TEST(CacheKey, FieldsAndOrderAndDomainAllMatter)
{
    const Hash128 base =
        CacheKeyBuilder("d").u32(1).u64(2).digest();
    EXPECT_EQ(base, CacheKeyBuilder("d").u32(1).u64(2).digest());
    EXPECT_NE(base, CacheKeyBuilder("e").u32(1).u64(2).digest());
    EXPECT_NE(base, CacheKeyBuilder("d").u32(2).u64(2).digest());
    EXPECT_NE(base, CacheKeyBuilder("d").u32(1).u64(3).digest());
    EXPECT_NE(base, CacheKeyBuilder("d").u64(2).u32(1).digest());
    // Same bit pattern through a different typed appender differs.
    EXPECT_NE(base, CacheKeyBuilder("d").u64(1).u64(2).digest());
}

TEST(CacheKey, StringFramingPreventsConcatenationCollisions)
{
    EXPECT_NE(CacheKeyBuilder("d").str("ab").str("c").digest(),
              CacheKeyBuilder("d").str("a").str("bc").digest());
    EXPECT_NE(CacheKeyBuilder("d").str("").digest(),
              CacheKeyBuilder("d").digest());
}

TEST(CacheKey, SchedulerReplayKeyCoversDecisions)
{
    std::vector<BitDecision> a(4);
    std::vector<BitDecision> b(4);
    b[2].technique = Technique::All1K;
    b[2].k = 0.3;
    const auto key = [&](const std::vector<BitDecision> &d) {
        return schedulerReplayKey(SchedulerConfig(),
                                  SchedReplayConfig(), 1000, d,
                                  0x1234, 7);
    };
    EXPECT_EQ(key(a), key(a));
    EXPECT_NE(key(a), key(b));
    EXPECT_NE(key(a), key(std::vector<BitDecision>()));
}

// ------------------------------------------------- codec round-trip

template <class T>
std::string
encodeToString(const T &value)
{
    ByteWriter w;
    encodeResult(w, value);
    return w.data();
}

template <class T>
void
expectRoundTrip(const T &value, T &out)
{
    const std::string bytes = encodeToString(value);
    ByteReader r(bytes);
    ASSERT_TRUE(decodeResult(r, out));
    EXPECT_TRUE(r.atEnd());
}

TEST(ResultCodec, IsvStatsRoundTrip)
{
    IsvStats stats;
    stats.updatesApplied = 0x1122334455667788ULL;
    stats.updatesDiscarded = 42;
    stats.updatesSkipped = 7;
    IsvStats out;
    expectRoundTrip(stats, out);
    EXPECT_EQ(out.updatesApplied, stats.updatesApplied);
    EXPECT_EQ(out.updatesDiscarded, stats.updatesDiscarded);
    EXPECT_EQ(out.updatesSkipped, stats.updatesSkipped);
}

TEST(ResultCodec, BitBiasTrackerRoundTripAcrossWidths)
{
    Rng rng(0xc0dec);
    for (unsigned width : {1u, 7u, 32u, 64u, 65u, 80u, 127u,
                           BitBiasTracker::kMaxWidth}) {
        BitBiasTracker tracker(width);
        for (int i = 0; i < 200; ++i) {
            BitWord value(width);
            for (unsigned bit = 0; bit < width; ++bit) {
                if (rng.nextBool(0.3))
                    value.setBit(bit, true);
            }
            tracker.observe(value, 1 + rng.nextInt(1000));
        }
        BitBiasTracker out(1);
        expectRoundTrip(tracker, out);
        ASSERT_EQ(out.width(), tracker.width());
        EXPECT_EQ(out.totalTime(), tracker.totalTime());
        for (unsigned bit = 0; bit < width; ++bit) {
            EXPECT_EQ(out.zeroTime(bit), tracker.zeroTime(bit));
            EXPECT_EQ(out.zeroProbability(bit),
                      tracker.zeroProbability(bit));
        }
    }
}

TEST(ResultCodec, SchedulerStressRoundTripFromRealReplay)
{
    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig());
    AttackTraceGenerator gen{AttackConfig{}};
    const SchedReplayResult r = replay.run(gen, 3'000);
    const SchedulerStress stress = sched.snapshotStress(r.cycles);

    SchedulerStress out;
    expectRoundTrip(stress, out);
    EXPECT_EQ(out.numEntries, stress.numEntries);
    EXPECT_EQ(out.cycles, stress.cycles);
    EXPECT_EQ(out.busyIntegral, stress.busyIntegral);
    EXPECT_EQ(out.fieldUseTime, stress.fieldUseTime);
    EXPECT_EQ(out.biasVector(), stress.biasVector());
    EXPECT_EQ(out.occupancy(), stress.occupancy());
    EXPECT_EQ(out.worstFigure8Bias(), stress.worstFigure8Bias());
}

TEST(ResultCodec, PipelineStatsRoundTrip)
{
    PipelineStats stats;
    stats.cycles = 123456;
    stats.uops = 7890;
    stats.cpi = 1.2345;
    for (unsigned a = 0; a < 4; ++a)
        stats.adderUtilization[a] = 0.1 * (a + 1);
    stats.intRfOccupancy = 0.46;
    stats.fpRfOccupancy = 0.31;
    stats.schedOccupancy = 0.63;
    stats.intRfPortFree = 0.92;
    stats.fpRfPortFree = 0.86;
    stats.schedPortFree = 0.77;
    stats.dl0Hits = 1111;
    stats.dl0Misses = 22;
    stats.dtlbMisses = 3;
    stats.mruHitFraction[0] = 0.9;
    stats.mruHitFraction[1] = 0.07;
    stats.mruHitFraction[2] = 0.03;

    PipelineStats out;
    expectRoundTrip(stats, out);
    EXPECT_EQ(out.cycles, stats.cycles);
    EXPECT_EQ(out.uops, stats.uops);
    EXPECT_EQ(out.cpi, stats.cpi);
    for (unsigned a = 0; a < 4; ++a)
        EXPECT_EQ(out.adderUtilization[a],
                  stats.adderUtilization[a]);
    EXPECT_EQ(out.schedOccupancy, stats.schedOccupancy);
    EXPECT_EQ(out.dl0Hits, stats.dl0Hits);
    EXPECT_EQ(out.mruHitFraction[2], stats.mruHitFraction[2]);
}

TEST(ResultCodec, MemLossSampleRoundTrip)
{
    MemLossSample sample;
    sample.loss = 0.0123;
    sample.normalizedCycles = 1.0123;
    sample.dl0InvertRatio = 0.5;
    sample.dtlbInvertRatio = 0.25;
    MemLossSample out;
    expectRoundTrip(sample, out);
    EXPECT_EQ(out.loss, sample.loss);
    EXPECT_EQ(out.normalizedCycles, sample.normalizedCycles);
    EXPECT_EQ(out.dl0InvertRatio, sample.dl0InvertRatio);
    EXPECT_EQ(out.dtlbInvertRatio, sample.dtlbInvertRatio);
}

TEST(ResultCodec, OperandVectorRoundTrip)
{
    std::vector<OperandSample> samples;
    Rng rng(0x0b5);
    for (int i = 0; i < 500; ++i) {
        samples.push_back(
            {static_cast<std::uint32_t>(rng()),
             static_cast<std::uint32_t>(rng()),
             rng.nextBool(0.1)});
    }
    std::vector<OperandSample> out;
    expectRoundTrip(samples, out);
    ASSERT_EQ(out.size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(out[i].a, samples[i].a);
        EXPECT_EQ(out[i].b, samples[i].b);
        EXPECT_EQ(out[i].cin, samples[i].cin);
    }
}

// -------------------------------------------- corrupt payloads miss

TEST(ResultCodec, RejectsTruncationWrongTagAndBadInvariants)
{
    IsvStats stats;
    stats.updatesApplied = 5;
    const std::string bytes = encodeToString(stats);

    // Truncation at every prefix length fails, never crashes.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        ByteReader r(std::string_view(bytes).substr(0, len));
        IsvStats out;
        EXPECT_FALSE(decodeResult(r, out) && r.atEnd());
    }

    // A different type's payload is rejected by tag.
    {
        ByteReader r(bytes);
        MemLossSample out;
        EXPECT_FALSE(decodeResult(r, out));
    }

    // Trailing garbage is not silently accepted.
    {
        const std::string extended = bytes + "x";
        ByteReader r(extended);
        IsvStats out;
        EXPECT_TRUE(decodeResult(r, out));
        EXPECT_FALSE(r.atEnd());
    }

    // A tracker whose zero-time exceeds its total is invalid.
    {
        BitBiasTracker tracker(4);
        tracker.observe(Word(0), 10);
        std::string blob = encodeToString(tracker);
        // Overwrite total-time (bytes 6..13 after tag, version,
        // width) with a value below the zero-times.
        for (int i = 0; i < 8; ++i)
            blob[6 + i] = 0;
        ByteReader r(blob);
        BitBiasTracker out(1);
        EXPECT_FALSE(decodeResult(r, out));
    }

    // A well-formed record wider than any tracker (a crafted store
    // file or network frame) is rejected before construction; the
    // widest valid record decodes.
    {
        const std::string header =
            encodeToString(BitBiasTracker(4)).substr(0, 2);
        for (std::uint32_t width : {BitBiasTracker::kMaxWidth,
                                    BitBiasTracker::kMaxWidth + 1,
                                    144u, 192u}) {
            ByteWriter w;
            w.bytes(header.data(), header.size());
            w.u32(width);
            w.u64(10); // total time
            for (std::uint32_t bit = 0; bit < width; ++bit)
                w.u64(bit % 11); // zero-times within the total
            ByteReader r(w.view());
            BitBiasTracker out(1);
            EXPECT_EQ(decodeResult(r, out),
                      width <= BitBiasTracker::kMaxWidth)
                << "width " << width;
        }
    }
}

// ------------------------------------------------- decoder fuzzing

/**
 * Seeded mutants of @p value's encoding (see fuzz.hh): each one the
 * decoder accepts -- as the engine does, decoded and fully consumed
 * -- must re-encode to exactly its own bytes, so no mutant decodes
 * to a value other than the one its bytes spell.  @p fresh is the
 * object each mutant decodes into.
 */
template <class T>
void
expectMutantsRejectedOrExact(const T &value, const T &fresh,
                             std::uint64_t seed)
{
    const std::string bytes = encodeToString(value);
    FuzzRng rng(seed);
    unsigned accepted = 0;
    for (int i = 0; i < 512; ++i) {
        const std::string mutant = mutate(bytes, rng);
        ByteReader r(mutant);
        T out = fresh;
        if (!decodeResult(r, out) || !r.atEnd())
            continue;
        ++accepted;
        EXPECT_EQ(encodeToString(out), mutant) << "iteration " << i;
    }
    EXPECT_GT(accepted, 0u); // value flips still decode
}

TEST(DecodeFuzz, MutatedResultsAreRejectedOrRoundTripExactly)
{
    IsvStats isv;
    isv.updatesApplied = 0x1122334455667788ULL;
    isv.updatesDiscarded = 42;
    isv.updatesSkipped = 7;
    expectMutantsRejectedOrExact(isv, IsvStats{}, 0x5eed0101);

    // A 80-bit tracker: the record spans the 64-bit word boundary.
    Rng rng(0xf022);
    BitBiasTracker bias(80);
    for (int i = 0; i < 64; ++i) {
        BitWord value(80);
        for (unsigned bit = 0; bit < 80; ++bit)
            value.setBit(bit, rng.nextBool(0.3));
        bias.observe(value, 1 + rng.nextInt(100));
    }
    expectMutantsRejectedOrExact(bias, BitBiasTracker(1), 0x5eed0102);

    Scheduler sched{SchedulerConfig{}};
    SchedulerReplay replay(sched, SchedReplayConfig());
    AttackTraceGenerator gen{AttackConfig{}};
    const SchedReplayResult run = replay.run(gen, 2'000);
    expectMutantsRejectedOrExact(sched.snapshotStress(run.cycles),
                                 SchedulerStress{}, 0x5eed0103);

    PipelineStats pipeline;
    pipeline.cycles = 123456;
    pipeline.uops = 7890;
    pipeline.cpi = 1.2345;
    pipeline.schedOccupancy = 0.63;
    pipeline.dl0Misses = 22;
    pipeline.mruHitFraction[0] = 0.9;
    expectMutantsRejectedOrExact(pipeline, PipelineStats{}, 0x5eed0104);

    MemLossSample loss;
    loss.loss = 0.0123;
    loss.normalizedCycles = 1.0123;
    loss.dl0InvertRatio = 0.5;
    expectMutantsRejectedOrExact(loss, MemLossSample{}, 0x5eed0105);

    std::vector<OperandSample> operands;
    for (int i = 0; i < 24; ++i) {
        operands.push_back({static_cast<std::uint32_t>(rng()),
                            static_cast<std::uint32_t>(rng()),
                            rng.nextBool(0.5)});
    }
    expectMutantsRejectedOrExact(operands, {}, 0x5eed0106);
}

/** 64 distinct keys and payloads of varying length. */
void
fuzzEntries(std::vector<Hash128> &keys, std::vector<std::string> &payloads)
{
    for (std::uint32_t i = 0; i < 64; ++i) {
        keys.push_back(CacheKeyBuilder("fuzz").u32(i).digest());
        payloads.push_back(std::string(1 + i % 13, 'a' + i % 26) +
                           std::to_string(i));
    }
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DecodeFuzz, MutatedStoreFileServesOnlyStoredPayloads)
{
    const std::string dir = tempDir("store_fuzz");
    const std::string file = dir + "/results.bin";
    std::vector<Hash128> keys;
    std::vector<std::string> payloads;
    fuzzEntries(keys, payloads);
    {
        ResultCache cache(dir);
        for (std::size_t k = 0; k < keys.size(); ++k)
            cache.store(keys[k], payloads[k]);
    }
    ASSERT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              1);
    const std::string original = readBytes(file);

    // The file is restored after every mutant (loading a damaged
    // file cuts its tail back).
    FuzzRng rng(0x5eed0107);
    unsigned hits = 0;
    unsigned misses = 0;
    for (int i = 0; i < 128; ++i) {
        writeBytes(file, mutate(original, rng));
        {
            ResultCache cache(dir);
            for (std::size_t k = 0; k < keys.size(); ++k) {
                std::string payload;
                if (!cache.lookup(keys[k], payload)) {
                    ++misses;
                    continue;
                }
                ++hits;
                EXPECT_EQ(payload, payloads[k])
                    << "iteration " << i << " key " << k;
            }
        }
        writeBytes(file, original);
    }
    EXPECT_GT(misses, 0u);
    EXPECT_GT(hits, misses);
}

TEST(DecodeFuzz, MutatedShardFilesImportOnlyStoredPayloads)
{
    const std::string dir = tempDir("shard_fuzz");
    const std::string file = dir + "/shard.bin";
    std::vector<Hash128> keys;
    std::vector<std::string> payloads;
    fuzzEntries(keys, payloads);
    {
        ResultCache source;
        for (std::size_t k = 0; k < keys.size(); ++k)
            source.store(keys[k], payloads[k]);
        ASSERT_TRUE(source.exportTo(file));
    }
    const std::string original = readBytes(file);

    // Every accepted mutant imports a subset of the stored entries,
    // each under its own key, and nothing else; a rejected one
    // imports nothing.
    const auto check = [&](ResultCache &cache, bool accepted, int i,
                           unsigned &served) {
        if (!accepted) {
            EXPECT_EQ(cache.size(), 0u) << "iteration " << i;
            return;
        }
        std::size_t found = 0;
        for (std::size_t k = 0; k < keys.size(); ++k) {
            std::string payload;
            if (!cache.lookup(keys[k], payload))
                continue;
            ++found;
            EXPECT_EQ(payload, payloads[k])
                << "iteration " << i << " key " << k;
        }
        EXPECT_EQ(cache.size(), found) << "iteration " << i;
        served += static_cast<unsigned>(found);
    };
    FuzzRng rng(0x5eed0108);
    unsigned rejected = 0;
    unsigned served = 0;
    for (int i = 0; i < 256; ++i) {
        const std::string mutant = mutate(original, rng);
        ResultCache from_bytes;
        const bool accepted = from_bytes.importFromBytes(mutant);
        check(from_bytes, accepted, i, served);
        rejected += accepted ? 0 : 1;

        writeBytes(file, mutant);
        ResultCache from_file;
        const bool file_accepted = from_file.importFrom(file);
        EXPECT_EQ(file_accepted, accepted) << "iteration " << i;
        check(from_file, file_accepted, i, served);
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(served, 0u);
}

// ------------------------------------------------ ResultCache store

TEST(ResultCache, MemoryStoreAndLookup)
{
    ResultCache cache;
    const Hash128 key = CacheKeyBuilder("t").u32(1).digest();
    std::string payload;
    EXPECT_FALSE(cache.lookup(key, payload));
    cache.store(key, "hello");
    ASSERT_TRUE(cache.lookup(key, payload));
    EXPECT_EQ(payload, "hello");
    EXPECT_EQ(cache.size(), 1u);
    const ResultCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
}

TEST(ResultCache, DiskStorePersistsAcrossInstances)
{
    const std::string dir = tempDir("persist");
    const Hash128 key = CacheKeyBuilder("t").u32(2).digest();
    {
        ResultCache cache(dir);
        cache.store(key, "payload-bytes");
    }
    ResultCache cache(dir);
    std::string payload;
    ASSERT_TRUE(cache.lookup(key, payload));
    EXPECT_EQ(payload, "payload-bytes");
}

TEST(ResultCache, ExportImportMovesEntries)
{
    const std::string file =
        tempDir("xfer") + "/entries.bin";
    ResultCache source;
    std::vector<Hash128> keys;
    for (std::uint32_t i = 0; i < 100; ++i) {
        const Hash128 key =
            CacheKeyBuilder("t").u32(i).digest();
        keys.push_back(key);
        source.store(key, "v" + std::to_string(i));
    }
    ASSERT_TRUE(source.exportTo(file));

    ResultCache dest;
    ASSERT_TRUE(dest.importFrom(file));
    EXPECT_EQ(dest.size(), 100u);
    std::string payload;
    ASSERT_TRUE(dest.lookup(keys[42], payload));
    EXPECT_EQ(payload, "v42");

    EXPECT_FALSE(dest.importFrom(file + ".does-not-exist"));
}

TEST(ResultCache, SaltUnchangedByBatchedNetlistEngine)
{
    // The PR that introduced the word-parallel netlist engine kept
    // every statistic bit-identical to the scalar form, so the
    // cache salt did NOT bump: stores written before it stay
    // valid.  If a later change alters simulator behaviour, bump
    // the salt and update this pin in the same commit.
    EXPECT_EQ(kResultCacheSalt, "penelope-result-cache-v1");
}

TEST(ResultCache, CompactDropsUntouchedEntries)
{
    const std::string dir = tempDir("gc");
    std::vector<Hash128> stale_keys;
    std::vector<Hash128> live_keys;
    for (std::uint32_t i = 0; i < 60; ++i)
        stale_keys.push_back(
            CacheKeyBuilder("old-salt").u32(i).digest());
    for (std::uint32_t i = 0; i < 40; ++i)
        live_keys.push_back(
            CacheKeyBuilder("live").u32(i).digest());

    // Populate a store with both generations.
    {
        ResultCache cache(dir);
        for (std::uint32_t i = 0; i < 60; ++i)
            cache.store(stale_keys[i], "stale-" +
                            std::to_string(i));
        for (std::uint32_t i = 0; i < 40; ++i)
            cache.store(live_keys[i], "live-" +
                            std::to_string(i));
    }

    // A later process looks up only the live generation (the warm
    // run of the current configuration), then compacts.
    {
        ResultCache cache(dir);
        std::string payload;
        for (const Hash128 &key : live_keys)
            ASSERT_TRUE(cache.lookup(key, payload));
        EXPECT_EQ(cache.compact(), 60u);
        EXPECT_EQ(cache.size(), 40u);
    }

    // The GC'd store still serves every live entry bit-identically
    // and the stale generation is gone from disk.
    ResultCache reopened(dir);
    std::string payload;
    for (std::uint32_t i = 0; i < 40; ++i) {
        ASSERT_TRUE(reopened.lookup(live_keys[i], payload));
        EXPECT_EQ(payload, "live-" + std::to_string(i));
    }
    for (const Hash128 &key : stale_keys)
        EXPECT_FALSE(reopened.lookup(key, payload));

    // The compacted store file accepts fresh appends.
    const Hash128 fresh = CacheKeyBuilder("fresh").u32(7).digest();
    reopened.store(fresh, "fresh-payload");
    ResultCache again(dir);
    ASSERT_TRUE(again.lookup(fresh, payload));
    EXPECT_EQ(payload, "fresh-payload");
}

TEST(ResultCache, CompactKeepsFreshStoresAndMemoryOnlyWorks)
{
    // Entries stored in this process are live by definition.
    ResultCache cache;
    const Hash128 stored = CacheKeyBuilder("s").u32(1).digest();
    cache.store(stored, "x");
    EXPECT_EQ(cache.compact(), 0u);
    std::string payload;
    EXPECT_TRUE(cache.lookup(stored, payload));

    // Imported-but-never-consulted entries are collectable.
    const std::string file = tempDir("gc_mem") + "/entries.bin";
    ASSERT_TRUE(cache.exportTo(file));
    ResultCache dest;
    ASSERT_TRUE(dest.importFrom(file));
    EXPECT_EQ(dest.size(), 1u);
    EXPECT_EQ(dest.compact(), 1u);
    EXPECT_EQ(dest.size(), 0u);
}

TEST(ResultCache, CorruptTruncatedAndForeignFilesAreMisses)
{
    // Each damage mode on the one store file: a cut tail is
    // truncated back and later appends stay reachable, a flipped
    // record is dropped while the rest are served, and a foreign
    // file is all misses, left untouched, with the cache running
    // memory-only.  No read may fail hard.
    const std::string dir = tempDir("corrupt");
    const std::string file = dir + "/results.bin";
    const auto payloadOf = [](std::size_t k) {
        return std::string(50, static_cast<char>('a' + k % 26));
    };
    std::vector<Hash128> keys;
    {
        ResultCache cache(dir);
        for (std::uint32_t i = 0; i < 64; ++i) {
            keys.push_back(CacheKeyBuilder("t").u32(i).digest());
            cache.store(keys.back(), payloadOf(i));
        }
    }
    const std::string original = readBytes(file);
    // The header, then the records in store order: key (16) +
    // length (4) + payload (50) + checksum (8).
    constexpr std::size_t kHeader = 8;
    constexpr std::size_t kRecord = 78;
    ASSERT_EQ(original.size(), kHeader + 64 * kRecord);

    const auto fresh = [](std::uint32_t i) {
        return CacheKeyBuilder("fresh").u32(i).digest();
    };
    // Which keys hit; a hit must carry the stored payload.
    const auto served = [&](ResultCache &cache) {
        std::vector<bool> hit(keys.size());
        for (std::size_t k = 0; k < keys.size(); ++k) {
            std::string payload;
            hit[k] = cache.lookup(keys[k], payload);
            if (hit[k]) {
                EXPECT_EQ(payload, payloadOf(k)) << "key " << k;
            }
        }
        return hit;
    };
    const auto allBut = [](std::size_t k) {
        std::vector<bool> hit(64, true);
        hit[k] = false;
        return hit;
    };

    // Truncated tail: the cut record misses and the file is cut back
    // to the last intact record, so later appends stay reachable.
    writeBytes(file, original.substr(0, original.size() - 9));
    {
        ResultCache cache(dir);
        EXPECT_EQ(served(cache), allBut(63));
        EXPECT_EQ(cache.stats().badRecords, 1u);
        EXPECT_EQ(std::filesystem::file_size(file),
                  kHeader + 63 * kRecord);
        for (std::uint32_t i = 0; i < 8; ++i)
            cache.store(fresh(i), "new-" + std::to_string(i));
    }
    {
        ResultCache cache(dir);
        EXPECT_EQ(cache.stats().badRecords, 0u);
        EXPECT_EQ(cache.size(), 63u + 8u);
        for (std::uint32_t i = 0; i < 8; ++i) {
            std::string payload;
            ASSERT_TRUE(cache.lookup(fresh(i), payload));
            EXPECT_EQ(payload, "new-" + std::to_string(i));
        }
    }

    // Flipped record: one payload bit of record 32 fails its
    // checksum; only that key misses, parsing goes on past it, and
    // the file keeps its length.  A re-store of the key appends a
    // good copy that the next run serves.
    std::string flipped = original;
    flipped[kHeader + 32 * kRecord + 20 + 25] ^= 0x01;
    writeBytes(file, flipped);
    {
        ResultCache cache(dir);
        EXPECT_EQ(served(cache), allBut(32));
        EXPECT_EQ(cache.stats().badRecords, 1u);
        EXPECT_EQ(std::filesystem::file_size(file), flipped.size());
        cache.store(keys[32], payloadOf(32));
    }
    {
        ResultCache cache(dir);
        EXPECT_EQ(served(cache), std::vector<bool>(64, true));
        EXPECT_EQ(cache.stats().badRecords, 1u);
    }

    // Foreign file: every lookup misses, nothing (not even GC) writes
    // to the file, and stores still serve from memory.
    const std::string foreign = "not a cache file at all";
    writeBytes(file, foreign);
    {
        ResultCache cache(dir);
        EXPECT_EQ(served(cache), std::vector<bool>(64, false));
        EXPECT_EQ(cache.stats().badRecords, 1u);
        cache.store(fresh(0), "new-0");
        std::string payload;
        ASSERT_TRUE(cache.lookup(fresh(0), payload));
        EXPECT_EQ(payload, "new-0");
        EXPECT_EQ(cache.flushToDisk(), 0u);
        EXPECT_EQ(cache.compact(), 0u);
    }
    EXPECT_EQ(readBytes(file), foreign);
    ResultCache reopened(dir);
    std::string payload;
    EXPECT_FALSE(reopened.lookup(fresh(0), payload));
}

TEST(ResultCache, ConcurrentStoreLookupImport)
{
    // Four threads store the same 256 keys in rotated orders and
    // look up pre-stored, just-stored and never-stored keys, while
    // a fifth imports an entry stream and exports deltas.  Every
    // outcome is interleaving-independent, so the final size and
    // stats are exact.
    const std::string dir = tempDir("concurrent");
    const auto key = [](const char *domain, std::uint32_t i) {
        return CacheKeyBuilder(domain).u32(i).digest();
    };
    constexpr std::uint32_t kPre = 64;      // stored before the threads
    constexpr std::uint32_t kShared = 256;  // stored by all four
    constexpr std::uint32_t kAbsent = 64;   // never stored
    constexpr std::uint32_t kImported = 128;
    constexpr int kImports = 32;

    // The import stream: kImported new entries, the pre-stored ones
    // again (deduplicated), and one record that fails its checksum.
    std::string stream;
    {
        ResultCache source;
        for (std::uint32_t i = 0; i < kImported; ++i)
            source.store(key("imported", i), "imp-" + std::to_string(i));
        for (std::uint32_t i = 0; i < kPre; ++i)
            source.store(key("pre", i), "pre-" + std::to_string(i));
        source.exportToBytes(stream);
        ResultCache bad;
        bad.store(key("bad", 0), "payload");
        std::string bad_stream;
        bad.exportToBytes(bad_stream);
        bad_stream[bad_stream.size() - 9] ^= 0x01; // payload bit
        stream += bad_stream.substr(8);             // drop its header
    }

    ResultCache cache(dir);
    for (std::uint32_t i = 0; i < kPre; ++i)
        cache.store(key("pre", i), "pre-" + std::to_string(i));

    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (std::uint32_t n = 0; n < kShared; ++n) {
                const std::uint32_t i = (n + t * kShared / 4) % kShared;
                const std::string value = "shared-" + std::to_string(i);
                cache.store(key("shared", i), value);
                std::string payload;
                EXPECT_TRUE(cache.lookup(key("shared", i), payload));
                EXPECT_EQ(payload, value);
                EXPECT_TRUE(cache.lookup(key("pre", i % kPre), payload));
                EXPECT_EQ(payload, "pre-" + std::to_string(i % kPre));
                EXPECT_FALSE(
                    cache.lookup(key("absent", i % kAbsent), payload));
                if (n % 64 == 0)
                    cache.noteDecodeFailure();
            }
        });
    }
    std::unordered_set<Hash128, Hash128Hasher> exported;
    threads.emplace_back([&] {
        std::string delta;
        for (int r = 0; r < kImports; ++r) {
            EXPECT_TRUE(cache.importFromBytes(stream));
            cache.exportNewEntries(exported, delta);
            // Every delta is a well-formed stream of good records.
            ResultCache check;
            EXPECT_TRUE(check.importFromBytes(delta));
            EXPECT_EQ(check.stats().badRecords, 0u);
        }
    });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(cache.size(), kPre + kShared + kImported);
    const ResultCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 4u * 2 * kShared);
    EXPECT_EQ(stats.misses, 4u * kShared);
    EXPECT_EQ(stats.stores, kPre + kShared);
    EXPECT_EQ(stats.decodeFailures, 4u * kShared / 64);
    EXPECT_EQ(stats.badRecords, static_cast<std::uint64_t>(kImports));

    // The deltas together cover every entry exactly once, and only
    // the imported entries still need flushing.
    std::string rest;
    cache.exportNewEntries(exported, rest);
    EXPECT_EQ(exported.size(), cache.size());
    EXPECT_EQ(cache.flushToDisk(), kImported);
    ResultCache reopened(dir);
    EXPECT_EQ(reopened.size(), cache.size());
}

// ------------------------------------- engine-level cache behaviour

/** Figure 6's INT arms, ISV off and on. */
const std::vector<RegFileArm> kIntArms = {{false, false}, {false, true}};

/** Figure 6's four arms, in its order. */
const std::vector<RegFileArm> kFig6Arms = {
    {false, false}, {false, true}, {true, false}, {true, true}};

/** Exact equality of two register-file arm results. */
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
    EXPECT_EQ(a.isvStats.updatesApplied,
              b.isvStats.updatesApplied);
    EXPECT_EQ(a.isvStats.updatesDiscarded,
              b.isvStats.updatesDiscarded);
    EXPECT_EQ(a.isvStats.updatesSkipped,
              b.isvStats.updatesSkipped);
}

void
expectIdentical(const std::vector<RegFileArmResult> &a,
                const std::vector<RegFileArmResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k)
        expectIdentical(a[k], b[k]);
}

/** Exact equality of two scheduler arms. */
void
expectIdentical(const SchedulerArmResult &a, const SchedulerArmResult &b)
{
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.worstFig8, b.worstFig8);
    EXPECT_EQ(a.occupancy, b.occupancy);
}

/** Exact equality of two scheduler experiment results: the same
 *  arms, each identical. */
void
expectIdentical(const SchedulerExperimentResult &a,
                const SchedulerExperimentResult &b)
{
    ASSERT_EQ(a.baseline.has_value(), b.baseline.has_value());
    ASSERT_EQ(a.protectedArm.has_value(), b.protectedArm.has_value());
    if (a.baseline)
        expectIdentical(*a.baseline, *b.baseline);
    if (a.protectedArm) {
        expectIdentical(*a.protectedArm, *b.protectedArm);
        EXPECT_EQ(a.protectedArm->guardband, b.protectedArm->guardband);
        EXPECT_EQ(a.protectedArm->efficiency,
                  b.protectedArm->efficiency);
        ASSERT_EQ(a.protectedArm->techniques.size(),
                  b.protectedArm->techniques.size());
        for (std::size_t f = 0; f < a.protectedArm->techniques.size();
             ++f) {
            const FieldTechniqueSummary &ta =
                a.protectedArm->techniques[f];
            const FieldTechniqueSummary &tb =
                b.protectedArm->techniques[f];
            EXPECT_EQ(ta.dominantTechnique, tb.dominantTechnique);
            EXPECT_EQ(ta.minK, tb.minK);
            EXPECT_EQ(ta.maxK, tb.maxK);
        }
    }
}

TEST(CachedEngine, ColdWarmUncachedAndJobsAllBitIdentical)
{
    const WorkloadSet workload;
    ExperimentOptions options = fastOptions();

    const std::vector<RegFileArmResult> uncached =
        runRegFileExperiment(workload, kIntArms, options);

    ResultCache cache;
    options.cache = &cache;
    const std::vector<RegFileArmResult> cold =
        runRegFileExperiment(workload, kIntArms, options);
    const std::uint64_t stores = cache.stats().stores;
    EXPECT_GT(stores, 0u);

    const std::vector<RegFileArmResult> warm =
        runRegFileExperiment(workload, kIntArms, options);
    EXPECT_EQ(cache.stats().stores, stores); // pure hits

    options.jobs = 4;
    const std::vector<RegFileArmResult> warm4 =
        runRegFileExperiment(workload, kIntArms, options);

    expectIdentical(cold, uncached);
    expectIdentical(warm, uncached);
    expectIdentical(warm4, uncached);
}

TEST(CachedEngine, ChangedOptionsNeverPoisonResults)
{
    const WorkloadSet workload;
    ResultCache cache;

    ExperimentOptions small = fastOptions();
    ExperimentOptions large = fastOptions();
    large.uopsPerTrace = 3'000;

    // Uncached references.
    const auto ref_small =
        runRegFileExperiment(workload, kIntArms, small);
    const auto ref_large =
        runRegFileExperiment(workload, kIntArms, large);
    ASSERT_NE(ref_small[0].worst, ref_large[0].worst);

    // One shared cache across both option sets, run twice each:
    // every run must match its own uncached reference.
    small.cache = &cache;
    large.cache = &cache;
    expectIdentical(
        runRegFileExperiment(workload, kIntArms, small),
        ref_small);
    expectIdentical(
        runRegFileExperiment(workload, kIntArms, large),
        ref_large);
    expectIdentical(
        runRegFileExperiment(workload, kIntArms, small),
        ref_small);
    expectIdentical(
        runRegFileExperiment(workload, kIntArms, large),
        ref_large);
}

TEST(CachedEngine, GcdStoreServesBitIdenticalWarmRuns)
{
    const WorkloadSet workload;
    const std::string dir = tempDir("engine_gc");

    ExperimentOptions options = fastOptions();
    const std::vector<RegFileArmResult> uncached =
        runRegFileExperiment(workload, kIntArms, options);

    // Fill the store with the current options AND a stale
    // generation (an options mix that will "no longer occur").
    std::size_t entries_with_stale = 0;
    {
        ResultCache cache(dir);
        ExperimentOptions stale = fastOptions();
        stale.uopsPerTrace = 3'000;
        stale.cache = &cache;
        runRegFileExperiment(workload, kIntArms, stale);
        options.cache = &cache;
        runRegFileExperiment(workload, kIntArms, options);
        entries_with_stale = cache.size();
    }

    // Warm run of only the current options, then GC.
    std::size_t entries_after_gc = 0;
    {
        ResultCache cache(dir);
        options.cache = &cache;
        const std::vector<RegFileArmResult> warm =
            runRegFileExperiment(workload, kIntArms, options);
        expectIdentical(warm, uncached);
        EXPECT_EQ(cache.stats().stores, 0u);
        EXPECT_GT(cache.compact(), 0u);
        entries_after_gc = cache.size();
    }
    EXPECT_LT(entries_after_gc, entries_with_stale);

    // The GC'd store still serves a fully warm, bit-identical run.
    ResultCache cache(dir);
    options.cache = &cache;
    const std::vector<RegFileArmResult> warm_after_gc =
        runRegFileExperiment(workload, kIntArms, options);
    expectIdentical(warm_after_gc, uncached);
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_GT(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().decodeFailures, 0u);
}

TEST(CachedEngine, CorruptDiskCacheReproducesColdRunExactly)
{
    const WorkloadSet workload;
    const std::string dir = tempDir("engine_corrupt");

    ExperimentOptions options = fastOptions();
    const auto reference =
        runRegFileExperiment(workload, kIntArms, options);

    {
        ResultCache cache(dir);
        options.cache = &cache;
        runRegFileExperiment(workload, kIntArms, options);
    }

    // Bit-flip one byte in the middle of the store file.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        const auto size = std::filesystem::file_size(entry);
        std::fstream io(entry.path(), std::ios::binary |
                            std::ios::in | std::ios::out);
        io.seekg(static_cast<std::streamoff>(size / 2));
        const char byte = static_cast<char>(io.get());
        io.seekp(static_cast<std::streamoff>(size / 2));
        io.put(static_cast<char>(byte ^ 0x40));
    }

    ResultCache cache(dir);
    options.cache = &cache;
    const auto after =
        runRegFileExperiment(workload, kIntArms, options);
    expectIdentical(after, reference);
}

TEST(CachedEngine, ShardMergeReproducesUnshardedRun)
{
    const WorkloadSet workload;
    const std::string dir = tempDir("shards");

    ExperimentOptions options = fastOptions();
    options.traceStride = 48;
    const auto reference =
        runSchedulerExperiment(workload, SchedulerArms::Both, options);

    // Two shard runs, each exporting its slice.
    std::vector<std::string> files;
    for (unsigned shard = 0; shard < 2; ++shard) {
        ResultCache cache;
        ExperimentOptions opts = options;
        opts.cache = &cache;
        opts.shardIndex = shard;
        opts.shardCount = 2;
        runSchedulerExperiment(workload, SchedulerArms::Both, opts);
        files.push_back(dir + "/s" + std::to_string(shard) +
                        ".bin");
        ASSERT_TRUE(cache.exportTo(files.back()));
    }

    // Merge: import both shard files, then run the full set; all
    // evaluation replays must come from the imported entries.
    ResultCache merged;
    for (const std::string &file : files)
        ASSERT_TRUE(merged.importFrom(file));
    ExperimentOptions opts = options;
    opts.cache = &merged;
    const auto combined = runSchedulerExperiment(workload, SchedulerArms::Both, opts);
    expectIdentical(combined, reference);
    EXPECT_EQ(merged.stats().stores, 0u); // everything hit
}

TEST(CachedEngine, MemLossSampleServesBothFoldDirections)
{
    // A query with mechanisms on both DL0 and DTLB caches one
    // sample per trace carrying both invert ratios; a warm call
    // folded for the DTLB must hit those entries and report the
    // DTLB ratio.
    const WorkloadSet workload;
    const std::vector<unsigned> traces = {0, 97, 311};
    const MemLossQuery both{CacheConfig(), CacheConfig::tlb(128, 8),
                            MechanismKind::LineFixed50,
                            MechanismKind::LineFixed50};
    ResultCache cache;
    const auto cold =
        simulateMemLosses(workload, traces, 2'000, {both},
                          MemTimingParams(), 0.1, 1, nullptr, &cache);
    const std::uint64_t stores = cache.stats().stores;
    EXPECT_EQ(stores, traces.size());

    RunningStats dl0_ratio;
    RunningStats dtlb_ratio;
    for (const unsigned index : traces) {
        TraceGenerator gen = workload.generator(index);
        MemTimingSim sim(both.dl0, both.dtlb, MemTimingParams(),
                         both.dl0Mechanism, both.dtlbMechanism, 0.1);
        const MemSimResult r = sim.run(gen, 2'000);
        dl0_ratio.add(r.dl0AvgInvertRatio);
        dtlb_ratio.add(r.dtlbAvgInvertRatio);
    }
    ASSERT_NE(dtlb_ratio.mean(), dl0_ratio.mean());

    const auto warm =
        simulateMemLosses(workload, traces, 2'000, {both},
                          MemTimingParams(), 0.1, 1, nullptr, &cache);
    EXPECT_EQ(cache.stats().stores, stores);
    const PerfLossStats dtlb_fold = foldPerfLoss(warm.front(), false);
    const PerfLossStats dl0_fold = foldPerfLoss(warm.front(), true);
    EXPECT_EQ(dtlb_fold.meanInvertRatio, dtlb_ratio.mean());
    EXPECT_EQ(dl0_fold.meanInvertRatio, dl0_ratio.mean());
    EXPECT_EQ(dtlb_fold.meanLoss,
              foldPerfLoss(cold.front(), false).meanLoss);
}

// A streamed pass prices several variants per trace, but each
// variant keeps the key and payload it had when priced alone: entries
// written by a one-variant call serve their half of a joint pass.

TEST(CachedEngine, IntOnlyEntriesServeTheIntHalfOfTheIntFpPass)
{
    const WorkloadSet workload;
    ExperimentOptions options = fastOptions();
    const std::size_t traces = evaluationTraces(workload, options).size();
    const auto reference =
        runRegFileExperiment(workload, kFig6Arms, options);

    ResultCache cache;
    options.cache = &cache;
    const auto int_only =
        runRegFileExperiment(workload, kIntArms, options);
    expectIdentical(int_only[0], reference[0]);
    expectIdentical(int_only[1], reference[1]);
    ASSERT_EQ(cache.stats().stores, 2 * traces); // ISV off and on

    const ResultCache::Stats before = cache.stats();
    const auto both =
        runRegFileExperiment(workload, kFig6Arms, options);
    expectIdentical(both, reference);
    EXPECT_EQ(cache.stats().hits - before.hits, 2 * traces);
    EXPECT_EQ(cache.stats().misses - before.misses, 2 * traces);
    EXPECT_EQ(cache.stats().stores - before.stores, 2 * traces);
}

TEST(CachedEngine, UnprotectedEntriesServeTheSchedulerPass)
{
    const WorkloadSet workload;
    ExperimentOptions options = fastOptions();
    const auto reference = runSchedulerExperiment(workload, SchedulerArms::Both, options);

    // The Figure-8 evaluation set: every traceStride-th trace
    // outside the profiling sample.
    const auto complement = workload.complement(workload.sampleIndices(
        std::min(options.profilingTraces, workload.size() / 2), 0xbead));
    std::vector<unsigned> eval;
    for (std::size_t i = 0; i < complement.size();
         i += options.traceStride)
        eval.push_back(complement[i]);
    const auto profiled = schedulerProfilingSubset(workload, options);

    // An unprotected replay is keyed like a profiling replay of the
    // same trace and length, so profiling the evaluation set fills
    // exactly the unprotected half of the pass.
    ResultCache cache;
    profileScheduler(workload, eval, options.uopsPerTrace,
                     SchedulerConfig(), SchedReplayConfig(), 1, nullptr,
                     &cache);
    profileScheduler(workload, profiled, options.uopsPerTrace / 2,
                     SchedulerConfig(), SchedReplayConfig(), 1, nullptr,
                     &cache);
    const ResultCache::Stats before = cache.stats();
    options.cache = &cache;
    expectIdentical(runSchedulerExperiment(workload, SchedulerArms::Both, options),
                    reference);
    EXPECT_EQ(cache.stats().hits - before.hits,
              profiled.size() + eval.size());
    EXPECT_EQ(cache.stats().misses - before.misses, eval.size());
    EXPECT_EQ(cache.stats().stores - before.stores, eval.size());
}

} // namespace
} // namespace penelope
