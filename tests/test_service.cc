/**
 * @file
 * Tests for the resident-service layer on top of src/net: backoff
 * determinism, fault-spec parsing and the frame-level fault seam,
 * ResultCache delta export / flush-to-disk, hung-worker forfeits by
 * heartbeat deadline, retry-budget exhaustion degrading a job to
 * Partial with an explicit manifest, worker reconnection across a
 * coordinator restart, delta entry streams, the SubmitJob/JobUpdate
 * client conversation against a resident coordinator, CancelJob,
 * and graceful stop semantics.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/shardplan.hh"
#include "fake_worker.hh"
#include "net/backoff.hh"
#include "net/coordinator.hh"
#include "net/faultinject.hh"
#include "net/protocol.hh"
#include "net/worker.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

using net::BackoffPolicy;
using net::CancelJobMessage;
using net::Coordinator;
using net::CoordinatorConfig;
using net::FaultAction;
using net::FaultConfig;
using net::FaultInjector;
using net::Frame;
using net::JobState;
using net::JobUpdateMessage;
using net::MessageType;
using net::RecvStatus;
using net::Socket;
using net::SubmitJobMessage;
using net::WorkerConfig;
using net::WorkerOutcome;
using net::WorkerStats;

using Clock = std::chrono::steady_clock;

/** Restores the process-wide injector to inert, whatever happens. */
struct FaultGuard
{
    FaultGuard() { FaultInjector::instance().disable(); }
    ~FaultGuard() { FaultInjector::instance().disable(); }
};

/** A connected loopback socket pair (server side accepted). */
struct LoopbackPair
{
    Socket listener;
    Socket client;
    Socket server;

    static LoopbackPair
    make()
    {
        LoopbackPair pair;
        std::string error;
        pair.listener = Socket::listenOn(0, &error);
        EXPECT_TRUE(pair.listener.valid()) << error;
        pair.client = Socket::connectTo(
            "127.0.0.1", pair.listener.boundPort(), &error);
        EXPECT_TRUE(pair.client.valid()) << error;
        pair.server = pair.listener.accept(2'000);
        EXPECT_TRUE(pair.server.valid());
        return pair;
    }
};

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

template <typename Message>
bool
sendMessage(Socket &sock, MessageType type, const Message &message)
{
    ByteWriter w;
    message.encode(w);
    return net::sendFrame(sock, type, w.view());
}

/** Receive the next JobUpdate on @p sock (fails the test on
 *  anything else). */
bool
recvUpdate(Socket &sock, JobUpdateMessage &update,
           int timeout_ms = 30'000)
{
    Frame frame;
    if (net::recvFrame(sock, frame, timeout_ms) != RecvStatus::Ok)
        return false;
    if (frame.type != MessageType::JobUpdate)
        return false;
    ByteReader r(frame.payload);
    return update.decode(r);
}

// ------------------------------------------------------- backoff

TEST(Backoff, DeterministicBoundedAndStreamIndependent)
{
    BackoffPolicy policy;
    policy.baseMs = 10;
    policy.capMs = 200;
    policy.seed = 42;

    bool any_differs = false;
    for (unsigned attempt = 1; attempt <= 8; ++attempt) {
        const int a = policy.delayMs(1, attempt);
        const int b = policy.delayMs(1, attempt);
        EXPECT_EQ(a, b) << "attempt " << attempt;
        EXPECT_GE(a, policy.baseMs);
        EXPECT_LE(a, policy.capMs);
        if (a != policy.delayMs(2, attempt))
            any_differs = true;
    }
    // Distinct streams draw independent schedules.
    EXPECT_TRUE(any_differs);

    // A different seed replays a different schedule.
    BackoffPolicy other = policy;
    other.seed = 43;
    bool seed_differs = false;
    for (unsigned attempt = 1; attempt <= 8; ++attempt) {
        if (policy.delayMs(1, attempt) != other.delayMs(1, attempt))
            seed_differs = true;
    }
    EXPECT_TRUE(seed_differs);

    // Degenerate knobs never divide by zero or underflow.
    BackoffPolicy tight;
    tight.baseMs = 0;
    tight.capMs = 0;
    EXPECT_GE(tight.delayMs(9, 3), 1);
}

// ---------------------------------------------------- fault specs

TEST(FaultSpec, ParsesTheDocumentedGrammar)
{
    FaultConfig config;
    std::string error;
    ASSERT_TRUE(FaultConfig::parse(
        "seed=7,drop=0.03,flip=0.02,truncate=0.01,halfclose=0.01,"
        "delay=0.05:15,stall-after=3,stall-ms=100",
        config, &error))
        << error;
    EXPECT_EQ(config.seed, 7u);
    EXPECT_DOUBLE_EQ(config.dropP, 0.03);
    EXPECT_DOUBLE_EQ(config.flipP, 0.02);
    EXPECT_DOUBLE_EQ(config.truncateP, 0.01);
    EXPECT_DOUBLE_EQ(config.halfCloseP, 0.01);
    EXPECT_DOUBLE_EQ(config.delayP, 0.05);
    EXPECT_EQ(config.delayMs, 15);
    EXPECT_EQ(config.stallAfterOps, 3u);
    EXPECT_EQ(config.stallMs, 100);
    EXPECT_TRUE(config.active());

    // Empty spec: valid and inert.
    FaultConfig inert;
    ASSERT_TRUE(FaultConfig::parse("", inert, &error));
    EXPECT_FALSE(inert.active());

    // Delay without an explicit duration keeps the default.
    FaultConfig delay_only;
    ASSERT_TRUE(FaultConfig::parse("delay=0.5", delay_only, &error));
    EXPECT_EQ(delay_only.delayMs, 20);
}

TEST(FaultSpec, RejectsMalformedFields)
{
    const char *bad[] = {
        "drop=1.5",       // probability out of range
        "drop=abc",       // not a number
        "wat=1",          // unknown key
        "drop",           // missing '='
        "seed=-3",        // not a u64
        "delay=0.1:0",    // zero delay
        "stall-ms=0",     // zero stall
        "drop=0.5,flip=0.5", // no room for the no-fault outcome
    };
    for (const char *spec : bad) {
        FaultConfig config;
        std::string error;
        EXPECT_FALSE(FaultConfig::parse(spec, config, &error))
            << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
}

TEST(FaultInject, ScheduleIsDeterministicPerConnectionAndOp)
{
    FaultGuard guard;
    FaultConfig config;
    config.seed = 9;
    config.dropP = 0.4;
    config.flipP = 0.3;
    FaultInjector::instance().configure(config);

    unsigned drops = 0;
    unsigned nones = 0;
    for (std::uint64_t conn = 1; conn <= 4; ++conn) {
        for (std::uint64_t op = 0; op < 32; ++op) {
            std::size_t cut1 = 0;
            std::size_t cut2 = 0;
            const FaultAction a = FaultInjector::instance()
                .sendAction(conn, op, 200, cut1);
            const FaultAction b = FaultInjector::instance()
                .sendAction(conn, op, 200, cut2);
            EXPECT_EQ(a, b);
            EXPECT_EQ(cut1, cut2);
            if (a == FaultAction::Drop)
                ++drops;
            if (a == FaultAction::None)
                ++nones;
        }
    }
    // With these probabilities both outcomes must occur.
    EXPECT_GT(drops, 0u);
    EXPECT_GT(nones, 0u);
}

TEST(FaultInject, DroppedFramesVanishButSendSucceeds)
{
    FaultGuard guard;
    FaultConfig config;
    config.dropP = 1.0;
    FaultInjector::instance().configure(config);

    LoopbackPair pair = LoopbackPair::make();
    EXPECT_TRUE(
        net::sendFrame(pair.client, MessageType::Hello, "payload"));
    Frame out;
    EXPECT_EQ(net::recvFrame(pair.server, out, 200),
              RecvStatus::Closed);
    EXPECT_GE(FaultInjector::instance().stats().drops, 1u);
}

TEST(FaultInject, FlippedFramesNeverDeliverAlteredPayloads)
{
    FaultGuard guard;
    FaultConfig config;
    config.flipP = 0.9; // parseable bound; force via configure
    config.dropP = 0.0;
    FaultInjector::instance().configure(config);

    // Whatever byte the schedule flips -- payload, length, even the
    // capability flags -- an Ok receive implies an intact payload.
    unsigned delivered = 0;
    unsigned rejected = 0;
    for (int i = 0; i < 12; ++i) {
        LoopbackPair pair = LoopbackPair::make();
        ASSERT_TRUE(net::sendFrame(pair.client, MessageType::Result,
                                   "the slice entry bytes"));
        pair.client.close();
        Frame out;
        const RecvStatus status =
            net::recvFrame(pair.server, out, 2'000);
        if (status == RecvStatus::Ok) {
            EXPECT_EQ(out.payload, "the slice entry bytes");
            ++delivered;
        } else {
            ++rejected;
        }
    }
    // With flipP = 0.9 over 12 frames, at least one flip must have
    // been rejected (a flipped flags word is the only intact case).
    EXPECT_GT(rejected, 0u);
    (void)delivered;
}

TEST(FaultInject, TruncatedFramesReadAsClosed)
{
    FaultGuard guard;
    FaultConfig config;
    config.truncateP = 0.9;
    FaultInjector::instance().configure(config);

    unsigned faulted = 0;
    for (int i = 0; i < 12; ++i) {
        LoopbackPair pair = LoopbackPair::make();
        net::sendFrame(pair.client, MessageType::Result,
                       "truncation fodder payload");
        pair.client.close();
        Frame out;
        const RecvStatus status =
            net::recvFrame(pair.server, out, 2'000);
        if (status != RecvStatus::Ok)
            ++faulted;
        else
            EXPECT_EQ(out.payload, "truncation fodder payload");
    }
    EXPECT_GT(faulted, 0u);
    EXPECT_GE(FaultInjector::instance().stats().truncates, 1u);
}

TEST(FaultInject, StallFailsTheSendAfterTheConfiguredOp)
{
    FaultGuard guard;
    FaultConfig config;
    config.stallAfterOps = 1;
    config.stallMs = 50;
    FaultInjector::instance().configure(config);

    LoopbackPair pair = LoopbackPair::make();
    EXPECT_TRUE(
        net::sendFrame(pair.client, MessageType::Hello, "first"));
    const Clock::time_point t0 = Clock::now();
    EXPECT_FALSE(
        net::sendFrame(pair.client, MessageType::Hello, "second"));
    EXPECT_GE(Clock::now() - t0, std::chrono::milliseconds(45));
    EXPECT_GE(FaultInjector::instance().stats().stalls, 1u);
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
    config.backoffBaseMs = 10;
    config.backoffCapMs = 50;
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
    while (coordinator.jobState(0) != JobState::Running &&
           Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(coordinator.jobState(0), JobState::Running);

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
    EXPECT_EQ(coordinator.jobState(0), JobState::Complete);
    EXPECT_GE(coordinator.stats().heartbeats, 1u);

    const std::string merged =
        renderPlan(workload, plan, &collected);
    EXPECT_EQ(merged, reference);
    EXPECT_EQ(collected.stats().stores, 0u);
}

TEST(Service, RetryBudgetExhaustionDegradesToPartialManifest)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    const std::string reference =
        renderPlan(workload, plan, nullptr);

    ResultCache collected;
    CoordinatorConfig config;
    config.retryBudget = 0; // every forfeit is final
    config.backoffBaseMs = 10;
    config.backoffCapMs = 50;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    // Each saboteur takes one assignment and drops the connection;
    // with a zero retry budget each loss fails its slice outright,
    // and after the last one the job must finalize Partial instead
    // of waiting forever for workers that will never come.
    for (std::uint32_t s = 0; s < plan.sliceCount; ++s) {
        const fake::Report bad =
            fake::closeAfterAssign(coordinator.port());
        EXPECT_TRUE(bad.assigned);
    }
    serve.join();

    EXPECT_EQ(coordinator.jobState(0), JobState::Partial);
    EXPECT_EQ(coordinator.stats().slicesFailed, plan.sliceCount);
    const std::vector<std::uint32_t> manifest =
        coordinator.incompleteSlices(0);
    ASSERT_EQ(manifest.size(), plan.sliceCount);
    for (std::uint32_t s = 0; s < plan.sliceCount; ++s)
        EXPECT_EQ(manifest[s], s);

    // The degraded cache still renders correctly -- the missing
    // slices are simply recomputed locally.
    const std::string merged =
        renderPlan(workload, plan, &collected);
    EXPECT_EQ(merged, reference);
}

TEST(Service, WorkerReconnectsAcrossCoordinatorRestart)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    const std::string reference =
        renderPlan(workload, plan, nullptr);

    // Phase one: a stand-in coordinator that accepts the worker,
    // reads its Hello and dies -- the restart-in-progress picture.
    std::string error;
    Socket stub = Socket::listenOn(0, &error);
    ASSERT_TRUE(stub.valid()) << error;
    const std::uint16_t port = stub.boundPort();

    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = port;
    wc.reconnectBudgetMs = 30'000;
    ResultCache worker_cache;
    WorkerStats stats;
    WorkerOutcome outcome = WorkerOutcome::ConnectFailed;
    std::thread worker([&] {
        std::string werr;
        outcome = net::runWorker(wc, workload, worker_cache,
                                 &stats, &werr);
    });

    {
        Socket conn = stub.accept(10'000);
        ASSERT_TRUE(conn.valid());
        Frame hello;
        ASSERT_EQ(net::recvFrame(conn, hello, 5'000),
                  RecvStatus::Ok);
        EXPECT_EQ(hello.type, MessageType::Hello);
        conn.close();
    }
    stub.close();

    // Phase two: the real coordinator comes back on the same port;
    // the worker's reconnect loop must find it and finish the run.
    ResultCache collected;
    CoordinatorConfig config;
    config.port = port;
    std::optional<Coordinator> coordinator;
    bool started = false;
    for (int i = 0; i < 50 && !started; ++i) {
        coordinator.emplace(plan, collected, config);
        started = coordinator->start(&error);
        if (!started)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
    }
    ASSERT_TRUE(started) << error;
    std::thread serve([&] { coordinator->run(); });

    worker.join();
    serve.join();

    EXPECT_EQ(outcome, WorkerOutcome::Finished);
    EXPECT_GE(stats.reconnects, 1u);
    EXPECT_EQ(stats.slicesRun, plan.sliceCount);
    EXPECT_EQ(coordinator->jobState(0), JobState::Complete);

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

TEST(Service, ConnectBudgetOutlastsALateListener)
{
    // The whole budget binds: a coordinator that starts listening
    // 6 s after its worker is still reached within an 8 s budget.
    const std::uint16_t port = freePort();
    WorkerConfig wc;
    wc.port = port;
    wc.connectBudgetMs = 8'000;
    ResultCache cache;
    WorkerOutcome outcome = WorkerOutcome::ConnectFailed;
    std::string werr;
    std::thread worker([&] {
        outcome = net::runWorker(wc, WorkloadSet(), cache, nullptr,
                                 &werr);
    });

    std::this_thread::sleep_for(std::chrono::seconds(6));
    std::string error;
    Socket listener = Socket::listenOn(port, &error);
    EXPECT_TRUE(listener.valid()) << error;
    Socket conn = listener.valid() ? listener.accept(5'000) : Socket();
    if (conn.valid()) {
        Frame hello;
        EXPECT_EQ(net::recvFrame(conn, hello, 5'000), RecvStatus::Ok);
        EXPECT_EQ(hello.type, MessageType::Hello);
        EXPECT_TRUE(net::sendFrame(conn, MessageType::Shutdown, {}));
    }
    worker.join();
    EXPECT_TRUE(conn.valid()) << "the worker gave up inside its budget";
    EXPECT_EQ(outcome, WorkerOutcome::Finished) << werr;
}

TEST(Service, ConnectBudgetBoundsAClosedPort)
{
    // Nobody listens: the worker keeps retrying for the whole
    // budget, then fails within one more retry interval (plus
    // scheduling slack for loaded or sanitized runs).
    WorkerConfig wc;
    wc.port = freePort();
    wc.connectBudgetMs = 1'000;
    ResultCache cache;
    std::string werr;
    const Clock::time_point t0 = Clock::now();
    const WorkerOutcome outcome =
        net::runWorker(wc, WorkloadSet(), cache, nullptr, &werr);
    const auto elapsed = Clock::now() - t0;
    EXPECT_EQ(outcome, WorkerOutcome::ConnectFailed);
    EXPECT_FALSE(werr.empty());
    EXPECT_GE(elapsed, std::chrono::milliseconds(wc.connectBudgetMs));
    EXPECT_LT(elapsed,
              std::chrono::milliseconds(wc.connectBudgetMs +
                                        net::kConnectRetryMs + 500));
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
    EXPECT_EQ(coordinator.jobState(0), JobState::Complete);
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
        while (!net::jobStateFinal(coordinator.jobState(0)))
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        const Clock::time_point final_at = Clock::now();
        serve.join();
        worker.join();

        EXPECT_EQ(coordinator.jobState(0), JobState::Complete);
        EXPECT_LT(returned - final_at, std::chrono::milliseconds(50))
            << "run " << run;
    }
}

// ------------------------------------------- resident job service

TEST(Service, ResidentSubmitJobStreamsToCompletion)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    const std::string reference =
        renderPlan(workload, plan, nullptr);

    ResultCache collected;
    CoordinatorConfig config;
    Coordinator coordinator(collected, config); // resident: no job
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = coordinator.port();
    wc.heartbeatIntervalMs = 100;
    ResultCache worker_cache;
    WorkerOutcome outcome = WorkerOutcome::ConnectFailed;
    std::thread worker([&] {
        std::string werr;
        outcome = net::runWorker(wc, workload, worker_cache,
                                 nullptr, &werr);
    });

    // The client conversation: submit, then stream updates (and
    // their entry payloads) until the job goes final.
    Socket client = Socket::connectTo("127.0.0.1",
                                      coordinator.port(), &error);
    ASSERT_TRUE(client.valid()) << error;
    SubmitJobMessage submit;
    submit.plan = plan;
    ASSERT_TRUE(
        sendMessage(client, MessageType::SubmitJob, submit));

    ResultCache client_cache;
    JobUpdateMessage update;
    unsigned updates = 0;
    do {
        ASSERT_TRUE(recvUpdate(client, update)) << updates;
        ++updates;
        ASSERT_NE(update.state, JobState::Rejected);
        if (!update.entries.empty()) {
            ASSERT_TRUE(
                client_cache.importFromBytes(update.entries));
        }
    } while (!net::jobStateFinal(update.state));

    EXPECT_EQ(update.state, JobState::Complete);
    EXPECT_EQ(update.slicesDone, plan.sliceCount);
    EXPECT_EQ(update.slicesTotal, plan.sliceCount);
    EXPECT_TRUE(update.incompleteSlices.empty());
    client.close();

    coordinator.requestStop();
    worker.join();
    serve.join();

    EXPECT_EQ(outcome, WorkerOutcome::Finished);
    EXPECT_EQ(coordinator.stats().jobsSubmitted, 1u);
    EXPECT_EQ(coordinator.stats().jobsFinished, 1u);

    // The client's streamed entries render bit-identically with no
    // local recomputation at all.
    const std::string rendered =
        renderPlan(workload, plan, &client_cache);
    EXPECT_EQ(rendered, reference);
    EXPECT_EQ(client_cache.stats().stores, 0u);
}

TEST(Service, CancelJobGoesFinalWithoutWorkers)
{
    ResultCache collected;
    CoordinatorConfig config;
    Coordinator coordinator(collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    Socket client = Socket::connectTo("127.0.0.1",
                                      coordinator.port(), &error);
    ASSERT_TRUE(client.valid()) << error;
    SubmitJobMessage submit;
    submit.plan = samplePlan();
    ASSERT_TRUE(
        sendMessage(client, MessageType::SubmitJob, submit));

    // The acceptance update names the job to cancel.
    JobUpdateMessage update;
    ASSERT_TRUE(recvUpdate(client, update));
    ASSERT_NE(update.state, JobState::Rejected);
    const std::uint32_t job = update.jobId;

    CancelJobMessage cancel;
    cancel.jobId = job;
    ASSERT_TRUE(
        sendMessage(client, MessageType::CancelJob, cancel));
    while (!net::jobStateFinal(update.state))
        ASSERT_TRUE(recvUpdate(client, update));
    EXPECT_EQ(update.state, JobState::Cancelled);
    client.close();

    // An unknown id, by contrast, is rejected outright.
    Socket other = Socket::connectTo("127.0.0.1",
                                     coordinator.port(), &error);
    ASSERT_TRUE(other.valid()) << error;
    CancelJobMessage bogus;
    bogus.jobId = 0xdeadu;
    ASSERT_TRUE(
        sendMessage(other, MessageType::CancelJob, bogus));
    JobUpdateMessage rejected;
    ASSERT_TRUE(recvUpdate(other, rejected));
    EXPECT_EQ(rejected.state, JobState::Rejected);
    other.close();

    coordinator.requestStop();
    serve.join();
    EXPECT_EQ(coordinator.jobState(job), JobState::Cancelled);
}

TEST(Service, GracefulStopFinalizesJobsAsPartial)
{
    ResultCache collected;
    CoordinatorConfig config;
    config.drainTimeoutMs = 2'000;
    Coordinator coordinator(collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    Socket client = Socket::connectTo("127.0.0.1",
                                      coordinator.port(), &error);
    ASSERT_TRUE(client.valid()) << error;
    SubmitJobMessage submit;
    submit.plan = samplePlan();
    ASSERT_TRUE(
        sendMessage(client, MessageType::SubmitJob, submit));

    JobUpdateMessage update;
    ASSERT_TRUE(recvUpdate(client, update));
    ASSERT_NE(update.state, JobState::Rejected);

    // Stop with no workers attached: nothing can land, so the job
    // must degrade to an explicit Partial -- with the full slice
    // manifest -- and the client must still be told before the
    // service exits.
    coordinator.requestStop();
    while (!net::jobStateFinal(update.state))
        ASSERT_TRUE(recvUpdate(client, update));
    EXPECT_EQ(update.state, JobState::Partial);
    EXPECT_EQ(update.slicesDone, 0u);
    ASSERT_EQ(update.incompleteSlices.size(),
              samplePlan().sliceCount);
    client.close();
    serve.join();

    EXPECT_EQ(coordinator.jobState(update.jobId),
              JobState::Partial);

    // A submit after the stop is rejected, not silently queued.
    // (The listener is down, so the connection itself now fails.)
    Socket late = Socket::connectTo("127.0.0.1",
                                    coordinator.port(), &error);
    EXPECT_FALSE(late.valid());
}

} // namespace
} // namespace penelope
