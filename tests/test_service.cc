/**
 * @file
 * Tests for the service layer on top of src/net: ResultCache delta
 * export / flush-to-disk, hung-worker forfeits by heartbeat
 * deadline, a refused connect, delta entry streams, a run ending
 * with its job, and the stop predicate degrading a job to Partial
 * with an explicit manifest.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/shardplan.hh"
#include "fake_worker.hh"
#include "net/coordinator.hh"
#include "net/protocol.hh"
#include "net/worker.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

using net::Coordinator;
using net::CoordinatorConfig;
using net::JobState;
using net::Socket;
using net::WorkerConfig;
using net::WorkerOutcome;
using net::WorkerStats;

using Clock = std::chrono::steady_clock;

/** A light plan fixture (the service tests run several end-to-end
 *  coordinated runs; keep each one brisk). */
ShardPlan
samplePlan()
{
    ShardPlan plan;
    plan.experiments = {"fig6", "fig3"};
    plan.sliceCount = 3;
    plan.traceStride = 96;
    plan.uopsPerTrace = 1'000;
    plan.cacheUops = 1'000;
    plan.adderOperandSamples = 200;
    plan.profilingTraces = 60;
    plan.mechanismTimeScale = 0.05;
    return plan;
}

/** Render the plan's experiments unsharded with @p cache. */
std::string
renderPlan(const WorkloadSet &workload, const ShardPlan &plan,
           ResultCache *cache)
{
    registerBuiltinExperiments();
    std::ostringstream out;
    for (const std::string &name : plan.experiments) {
        const Experiment *experiment =
            ExperimentRegistry::instance().find(name);
        EXPECT_NE(experiment, nullptr) << name;
        ExperimentOptions options = plan.sliceOptions(0);
        options.shardIndex = 0;
        options.shardCount = 1;
        options.cache = cache;
        experiment->run({workload, options, out});
    }
    return out.str();
}

// --------------------------------------- cache deltas and flushes

TEST(ServiceCache, DeltaExportSendsEachEntryOnce)
{
    ResultCache cache;
    const Hash128 k1{0x1111, 0x2222};
    const Hash128 k2{0x3333, 0x4444};
    cache.store(k1, "first payload");
    cache.store(k2, "second payload");

    std::unordered_set<Hash128, Hash128Hasher> seen;
    std::string first;
    cache.exportNewEntries(seen, first);
    EXPECT_EQ(first.size(), cache.exportByteSize());

    ResultCache imported;
    ASSERT_TRUE(imported.importFromBytes(first));
    EXPECT_EQ(imported.size(), 2u);

    // Nothing new: the delta degenerates to a bare header that
    // still imports cleanly as zero entries.
    std::string empty_delta;
    cache.exportNewEntries(seen, empty_delta);
    EXPECT_LT(empty_delta.size(), first.size());
    ResultCache none;
    ASSERT_TRUE(none.importFromBytes(empty_delta));
    EXPECT_EQ(none.size(), 0u);

    // A later store travels in the next delta, alone.
    const Hash128 k3{0x5555, 0x6666};
    cache.store(k3, "third payload");
    std::string delta;
    cache.exportNewEntries(seen, delta);
    ASSERT_TRUE(imported.importFromBytes(delta));
    EXPECT_EQ(imported.size(), 3u);
    std::string payload;
    ASSERT_TRUE(imported.lookup(k3, payload));
    EXPECT_EQ(payload, "third payload");
}

TEST(ServiceCache, FlushPersistsImportedEntriesAcrossRestart)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
        "penelope_service_flush_test";
    fs::remove_all(dir);

    ResultCache source;
    const Hash128 k1{0xaaaa, 0xbbbb};
    const Hash128 k2{0xcccc, 0xdddd};
    const Hash128 k3{0xeeee, 0xffff};
    source.store(k1, "imported one");
    source.store(k2, "imported two");
    std::string bytes;
    source.exportToBytes(bytes);

    {
        ResultCache disk(dir.string());
        disk.store(k3, "stored directly");
        ASSERT_TRUE(disk.importFromBytes(bytes));
        // Only the imported entries need flushing; store() already
        // persisted k3 as it went.
        EXPECT_EQ(disk.flushToDisk(), 2u);
        EXPECT_EQ(disk.flushToDisk(), 0u);
    }

    // A restarted service serves all three warm.
    ResultCache reopened(dir.string());
    std::string payload;
    ASSERT_TRUE(reopened.lookup(k1, payload));
    EXPECT_EQ(payload, "imported one");
    ASSERT_TRUE(reopened.lookup(k2, payload));
    EXPECT_EQ(payload, "imported two");
    ASSERT_TRUE(reopened.lookup(k3, payload));
    EXPECT_EQ(payload, "stored directly");

    fs::remove_all(dir);
}

// ------------------------------------------- coordinated failures

TEST(Service, HungWorkerForfeitsByHeartbeatDeadline)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    const std::string reference =
        renderPlan(workload, plan, nullptr);

    ResultCache collected;
    CoordinatorConfig config;
    config.workersExpected = 2;
    config.sliceTimeoutMs = 600'000; // only the deadline can save us
    config.heartbeatTimeoutMs = 1'000;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    // The hung worker takes its first assignment and goes silent
    // while keeping the connection open: invisible to TCP, caught
    // only by the heartbeat deadline.
    fake::Report hung;
    std::thread silent([&] {
        hung = fake::silentAfterAssign(coordinator.port(), 60'000);
    });

    // Let the hung worker claim first, then send in the rescuer.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(10);
    while (coordinator.jobState() != JobState::Running &&
           Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(coordinator.jobState(), JobState::Running);

    // The rescuer is slow but heartbeating: it beats for 1.3 s, past
    // the 1 s deadline, before each result.  The deadline must not
    // forfeit it -- and the coordinator must see its beats.
    fake::Report good;
    std::thread rescuer([&] {
        good = fake::slowHeartbeatingWorker(coordinator.port(),
                                            workload, 1'300, 50);
    });

    silent.join();
    rescuer.join();
    serve.join();

    // The forfeit closed the hung connection, so the worker exits
    // bounded instead of holding its slice for 60 s.
    EXPECT_TRUE(hung.assigned);
    EXPECT_TRUE(hung.hungUp);
    EXPECT_TRUE(good.shutdown);
    EXPECT_EQ(good.slicesRun, plan.sliceCount);
    EXPECT_GE(coordinator.stats().hungForfeits, 1u);
    EXPECT_GE(coordinator.stats().reassignments, 1u);
    EXPECT_EQ(coordinator.jobState(), JobState::Complete);
    EXPECT_GE(coordinator.stats().heartbeats, 1u);

    const std::string merged =
        renderPlan(workload, plan, &collected);
    EXPECT_EQ(merged, reference);
    EXPECT_EQ(collected.stats().stores, 0u);
}

/** A free loopback port: bound once, then released. */
std::uint16_t
freePort()
{
    std::string error;
    Socket probe = Socket::listenOn(0, &error);
    EXPECT_TRUE(probe.valid()) << error;
    return probe.boundPort();
}

TEST(Service, ClosedPortFailsConnectAtOnce)
{
    // Nobody listens: the worker connects once and fails at once,
    // with the refusal in its error.
    WorkerConfig wc;
    wc.port = freePort();
    ResultCache cache;
    std::string werr;
    const Clock::time_point t0 = Clock::now();
    const WorkerOutcome outcome =
        net::runWorker(wc, WorkloadSet(), cache, nullptr, &werr);
    EXPECT_EQ(outcome, WorkerOutcome::ConnectFailed);
    EXPECT_FALSE(werr.empty());
    EXPECT_LT(Clock::now() - t0, std::chrono::milliseconds(500));
}

TEST(Service, DeltaStreamsResendLessThanFullExports)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();

    ResultCache collected;
    CoordinatorConfig config;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = coordinator.port();
    ResultCache worker_cache;
    WorkerStats stats;
    WorkerOutcome outcome = WorkerOutcome::ConnectFailed;
    std::thread worker([&] {
        std::string werr;
        outcome = net::runWorker(wc, workload, worker_cache,
                                 &stats, &werr);
    });
    worker.join();
    serve.join();

    ASSERT_EQ(outcome, WorkerOutcome::Finished);
    ASSERT_EQ(stats.slicesRun, plan.sliceCount);
    // One worker ran every slice over one connection: slices after
    // the first resend nothing already acknowledged, so the delta
    // bytes actually sent undercut what full exports would cost.
    EXPECT_GT(stats.sentBytes, 0u);
    EXPECT_LT(stats.sentBytes, stats.fullExportBytes);
    EXPECT_EQ(coordinator.jobState(), JobState::Complete);
}

TEST(Service, OneShotRunEndsWithItsJob)
{
    // run() must not wait out an accept poll once the job is final:
    // the completion wakes the listener.  Five runs, so a lucky
    // poll phase cannot pass the check.
    const WorkloadSet workload;
    ShardPlan plan = samplePlan();
    plan.experiments = {"fig3"};
    plan.sliceCount = 1;
    for (int run = 0; run < 5; ++run) {
        ResultCache collected;
        Coordinator coordinator(plan, collected, CoordinatorConfig{});
        std::string error;
        ASSERT_TRUE(coordinator.start(&error)) << error;
        Clock::time_point returned;
        std::thread serve([&] {
            coordinator.run();
            returned = Clock::now();
        });

        WorkerConfig wc;
        wc.host = "127.0.0.1";
        wc.port = coordinator.port();
        ResultCache worker_cache;
        std::thread worker([&] {
            std::string werr;
            net::runWorker(wc, workload, worker_cache, nullptr,
                           &werr);
        });
        while (!net::jobStateFinal(coordinator.jobState()))
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        const Clock::time_point final_at = Clock::now();
        serve.join();
        worker.join();

        EXPECT_EQ(coordinator.jobState(), JobState::Complete);
        EXPECT_LT(returned - final_at, std::chrono::milliseconds(50))
            << "run " << run;
    }
}

// ------------------------------------------------- stop predicate

TEST(Service, StopPredicateFinalizesJobAsPartial)
{
    // The external signal (a deadline in the benchmark) stops a run
    // that no worker serves.
    std::atomic<bool> stop{false};
    CoordinatorConfig config;
    config.stopRequested = [&stop] { return stop.load(); };
    ResultCache collected;
    Coordinator coordinator(samplePlan(), collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { EXPECT_TRUE(coordinator.run()); });

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const Clock::time_point stopped_at = Clock::now();
    stop.store(true);

    // With no worker attached nothing lands: run() returns without
    // waiting out the drain, the job is an explicit Partial that
    // lists every slice, and the listener is down.
    serve.join();
    EXPECT_LT(Clock::now() - stopped_at, std::chrono::seconds(2));
    EXPECT_EQ(coordinator.jobState(), JobState::Partial);
    const std::vector<std::uint32_t> manifest =
        coordinator.incompleteSlices();
    ASSERT_EQ(manifest.size(), samplePlan().sliceCount);
    for (std::uint32_t s = 0; s < manifest.size(); ++s)
        EXPECT_EQ(manifest[s], s);
    EXPECT_EQ(coordinator.stats().assignments, 0u);

    Socket late = Socket::connectTo("127.0.0.1", coordinator.port(),
                                    &error);
    EXPECT_FALSE(late.valid());
}

} // namespace
} // namespace penelope
