/**
 * @file
 * The observability layer: exact counts under thread contention,
 * histogram bucket laws, the span tracer's Chrome-trace output,
 * the `--metrics-dump` rendering, and the runtime-off guarantees.
 *
 * Every count assertion is gated on obs::kCompiledIn so the suite
 * also passes -- exercising the empty inline bodies -- under a
 * -DPENELOPE_NO_OBS=ON build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.hh"
#include "obs/exposition.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace penelope;

namespace {

std::uint64_t
counterValue(const obs::Snapshot &snap, const std::string &name)
{
    const obs::SnapshotMetric *m = snap.find(name);
    return m ? m->scalar() : 0;
}

// ------------------------------------------------- registry basics

TEST(ObsRegistry, CounterAccumulatesWhenEnabled)
{
    const obs::ScopedEnable enable;
    const obs::Counter c =
        obs::Registry::instance().counter("test.basic_counter");
    const std::uint64_t before = counterValue(
        obs::Registry::instance().scrape(), "test.basic_counter");
    c.add();
    c.add(41);
    const std::uint64_t after = counterValue(
        obs::Registry::instance().scrape(), "test.basic_counter");
    if (obs::kCompiledIn)
        EXPECT_EQ(after - before, 42u);
    else
        EXPECT_EQ(after, 0u);
}

TEST(ObsRegistry, RegistrationIsIdempotentByName)
{
    const obs::Counter a =
        obs::Registry::instance().counter("test.same_name");
    const obs::Counter b =
        obs::Registry::instance().counter("test.same_name");
    const obs::ScopedEnable enable;
    a.add(3);
    b.add(4);
    const std::uint64_t v = counterValue(
        obs::Registry::instance().scrape(), "test.same_name");
    if (obs::kCompiledIn) {
        EXPECT_GE(v, 7u); // one series, both handles feed it
    }
}

TEST(ObsRegistry, RuntimeOffLeavesRegistryUntouched)
{
    const obs::Counter c =
        obs::Registry::instance().counter("test.off_counter");
    const obs::Histogram h =
        obs::Registry::instance().histogram("test.off_hist", "us");
    const obs::Snapshot before = obs::Registry::instance().scrape();
    {
        const obs::ScopedEnable disable(false);
        c.add(1000);
        h.record(1000);
    }
    const obs::Snapshot after = obs::Registry::instance().scrape();
    EXPECT_EQ(counterValue(before, "test.off_counter"),
              counterValue(after, "test.off_counter"));
    const obs::SnapshotMetric *hb = before.find("test.off_hist");
    const obs::SnapshotMetric *ha = after.find("test.off_hist");
    ASSERT_TRUE(hb != nullptr && ha != nullptr);
    EXPECT_EQ(hb->count(), ha->count());
}

// ----------------------------------- exact counts under contention

/** Hammer one counter and one histogram from a contended pool:
 *  the scrape must account for every single emission -- totals are
 *  exact, not approximate -- including emissions from pool threads
 *  that have since exited. */
TEST(ObsShards, MergeIsExactUnderContention)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP();
    const obs::ScopedEnable enable;
    const obs::Counter c =
        obs::Registry::instance().counter("test.contended");
    const obs::Histogram h =
        obs::Registry::instance().histogram("test.contended_hist");
    const obs::Snapshot before =
        obs::Registry::instance().scrape();
    const std::uint64_t c0 = counterValue(before, "test.contended");
    const obs::SnapshotMetric *h0 =
        before.find("test.contended_hist");
    ASSERT_NE(h0, nullptr);
    const std::uint64_t hc0 = h0->count();
    const std::uint64_t hs0 = h0->sum();

    constexpr std::size_t kTasks = 64;
    constexpr std::uint64_t kPerTask = 2000;
    {
        ThreadPool pool(8);
        parallelFor(
            kTasks, 8,
            [&](std::size_t k) {
                for (std::uint64_t i = 0; i < kPerTask; ++i) {
                    c.add();
                    h.record(k + 1);
                }
                // Mid-run scrapes must never lose emissions
                // (they read the slots without zeroing them).
                if (k % 16 == 0)
                    (void)obs::Registry::instance().scrape();
            },
            &pool);
        // Pool destruction joins every worker: the scrape below
        // must still see what the exited threads emitted.
    }

    const obs::Snapshot snap = obs::Registry::instance().scrape();
    EXPECT_EQ(counterValue(snap, "test.contended") - c0,
              kTasks * kPerTask);
    const obs::SnapshotMetric *h1 =
        snap.find("test.contended_hist");
    ASSERT_NE(h1, nullptr);
    EXPECT_EQ(h1->count() - hc0, kTasks * kPerTask);
    std::uint64_t expected_sum = 0;
    for (std::size_t k = 0; k < kTasks; ++k)
        expected_sum += (k + 1) * kPerTask;
    EXPECT_EQ(h1->sum() - hs0, expected_sum);
}

/** What a thread emits outlives the thread, and a later thread
 *  adds to the same total.  Nothing is lost or double-counted. */
TEST(ObsShards, ThreadExitRetiresWithoutLoss)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP();
    const obs::ScopedEnable enable;
    const obs::Counter c =
        obs::Registry::instance().counter("test.retire");
    const std::uint64_t before = counterValue(
        obs::Registry::instance().scrape(), "test.retire");
    for (int round = 0; round < 4; ++round) {
        std::thread t([&] { c.add(100); });
        t.join();
    }
    EXPECT_EQ(counterValue(obs::Registry::instance().scrape(),
                           "test.retire") -
                  before,
              400u);
}

// --------------------------------------------- histogram geometry

TEST(ObsHistogram, BucketIndexLaws)
{
    // bucket 0 = {0}; bucket b >= 1 = [2^(b-1), 2^b).
    EXPECT_EQ(obs::bucketIndex(0), 0u);
    EXPECT_EQ(obs::bucketIndex(1), 1u);
    EXPECT_EQ(obs::bucketIndex(2), 2u);
    EXPECT_EQ(obs::bucketIndex(3), 2u);
    EXPECT_EQ(obs::bucketIndex(4), 3u);
    for (unsigned b = 1; b < 64; ++b) {
        const std::uint64_t lo = std::uint64_t(1) << (b - 1);
        EXPECT_EQ(obs::bucketIndex(lo), b);
        EXPECT_EQ(obs::bucketIndex(2 * lo - 1), b);
    }
    EXPECT_EQ(obs::bucketIndex(~std::uint64_t(0)), 64u);
    EXPECT_LT(obs::bucketIndex(~std::uint64_t(0)),
              obs::kHistBuckets);
}

TEST(ObsHistogram, BucketBoundIsInclusiveUpperEdge)
{
    EXPECT_EQ(obs::bucketBound(0), 0u);
    EXPECT_EQ(obs::bucketBound(1), 1u);
    EXPECT_EQ(obs::bucketBound(2), 3u);
    EXPECT_EQ(obs::bucketBound(10), 1023u);
    EXPECT_EQ(obs::bucketBound(64), ~std::uint64_t(0));
    for (unsigned b = 0; b + 1 < obs::kHistBuckets; ++b) {
        // Every value in bucket b is <= bound(b) < values of b+1.
        EXPECT_EQ(obs::bucketIndex(obs::bucketBound(b)), b);
        EXPECT_EQ(obs::bucketIndex(obs::bucketBound(b) + 1),
                  b + 1);
    }
}

TEST(ObsHistogram, RecordFillsBucketAndSum)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP();
    const obs::ScopedEnable enable;
    const obs::Histogram h =
        obs::Registry::instance().histogram("test.hist_fill");
    const obs::Snapshot before =
        obs::Registry::instance().scrape();
    const obs::SnapshotMetric *b0 = before.find("test.hist_fill");
    ASSERT_NE(b0, nullptr);
    h.record(0);
    h.record(5); // bucket 3 = [4, 8)
    h.record(5);
    const obs::Snapshot after = obs::Registry::instance().scrape();
    const obs::SnapshotMetric *m = after.find("test.hist_fill");
    ASSERT_NE(m, nullptr);
    ASSERT_EQ(m->values.size(), obs::kHistSlots);
    EXPECT_EQ(m->values[0] - b0->values[0], 1u);
    EXPECT_EQ(m->values[3] - b0->values[3], 2u);
    EXPECT_EQ(m->count() - b0->count(), 3u);
    EXPECT_EQ(m->sum() - b0->sum(), 10u);
}

// ------------------------------------------------------ exposition

obs::Snapshot
sampleSnapshot()
{
    std::vector<std::uint64_t> hist(obs::kHistSlots, 0);
    hist[3] = 7;
    hist[obs::kHistSlots - 1] = 35;
    obs::Snapshot snap;
    snap.metrics.push_back(
        {"a.counter", obs::MetricKind::Counter, "1", {123}});
    snap.metrics.push_back(
        {"c.hist", obs::MetricKind::Histogram, "us", hist});
    return snap;
}

TEST(ObsExposition, DumpIsSortedAndPrefixed)
{
    const std::string text = obs::renderDump(sampleSnapshot());
    std::istringstream in(text);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) {
        ASSERT_EQ(line.rfind("obs: ", 0), 0u) << line;
        lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 3u);
    EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
}

// ------------------------------------------------------ span tracer

/** Minimal JSON validity check for one trace line: balanced
 *  braces/brackets outside strings, no control characters.  The CI
 *  step runs the real file through jq; this keeps the unit suite
 *  self-contained. */
bool
lineIsPlausibleJson(const std::string &line)
{
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (static_cast<unsigned char>(ch) < 0x20)
            return false;
        if (in_string) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                in_string = false;
            continue;
        }
        if (ch == '"') {
            in_string = true;
        } else if (ch == '{' || ch == '[') {
            ++depth;
        } else if (ch == '}' || ch == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return !in_string && depth == 0;
}

TEST(ObsTracer, EmitsLoadableChromeTrace)
{
    const std::string path = "obs_trace_test.json";
    std::string error;
    ASSERT_TRUE(obs::Tracer::instance().open(path, &error))
        << error;
    {
        const obs::ScopedSpan outer("outer", "test");
        {
            const obs::ScopedSpan inner("inner", "test");
        }
    }
    std::thread t([] {
        const obs::ScopedSpan other("other-thread", "test");
    });
    t.join();
    obs::Tracer::instance().close();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    in.close();
    std::remove(path.c_str());

    ASSERT_GE(lines.size(), 2u);
    EXPECT_EQ(lines.front(), "[");
    EXPECT_EQ(lines.back(), "]");

    std::size_t spans = 0;
    bool saw_inner = false, saw_outer = false, saw_other = false;
    std::uint64_t inner_ts = 0, inner_end = 0;
    std::uint64_t outer_ts = 0, outer_end = 0;
    for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
        std::string body = lines[i];
        ASSERT_FALSE(body.empty());
        if (body.back() == ',')
            body.pop_back();
        EXPECT_TRUE(lineIsPlausibleJson(body)) << body;
        if (body == "{}")
            continue; // the close sentinel
        ++spans;
        const auto field = [&body](const char *key) {
            const std::string needle =
                "\"" + std::string(key) + "\":";
            const std::size_t at = body.find(needle);
            EXPECT_NE(at, std::string::npos) << key << body;
            return at == std::string::npos
                ? std::uint64_t(0)
                : std::strtoull(
                      body.c_str() + at + needle.size(), nullptr,
                      10);
        };
        EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
        if (body.find("\"name\":\"inner\"") != std::string::npos) {
            saw_inner = true;
            inner_ts = field("ts");
            inner_end = inner_ts + field("dur");
        } else if (body.find("\"name\":\"outer\"") !=
                   std::string::npos) {
            saw_outer = true;
            outer_ts = field("ts");
            outer_end = outer_ts + field("dur");
        } else if (body.find("\"name\":\"other-thread\"") !=
                   std::string::npos) {
            saw_other = true;
            EXPECT_EQ(body.find("\"tid\":1"), std::string::npos)
                << "spans of another thread must carry their own "
                   "tid: "
                << body;
        }
    }
    if (!obs::kCompiledIn) {
        EXPECT_EQ(spans, 0u);
        return;
    }
    EXPECT_EQ(spans, 3u);
    EXPECT_TRUE(saw_inner && saw_outer && saw_other);
    // Nesting: the inner span lies within the outer one.
    EXPECT_GE(inner_ts, outer_ts);
    EXPECT_LE(inner_end, outer_end);
}

TEST(ObsTracer, InactiveTracerCostsNothingAndCloseIsIdempotent)
{
    obs::Tracer::instance().close(); // no open(): a no-op
    EXPECT_FALSE(obs::Tracer::instance().active());
    {
        const obs::ScopedSpan span("ignored", "test");
    }
    obs::Tracer::instance().close();
}

} // namespace
