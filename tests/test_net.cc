/**
 * @file
 * Tests for the networked scale-out subsystem (src/net): frame
 * codec round-trips, rejection of truncated/corrupt/version-
 * mismatched frames without crashing, ShardPlan wire validation,
 * worker-drop-mid-slice reassignment, and a loopback coordinator +
 * two workers end-to-end run asserted byte-identical to the
 * unsharded output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hh"
#include "core/shardplan.hh"
#include "fake_worker.hh"
#include "fuzz.hh"
#include "net/coordinator.hh"
#include "net/protocol.hh"
#include "net/worker.hh"
#include "obs/metrics.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

using net::AssignMessage;
using net::Coordinator;
using net::CoordinatorConfig;
using net::Frame;
using net::HelloMessage;
using net::MessageType;
using net::RecvStatus;
using net::ResultMessage;
using net::HeartbeatAckMessage;
using net::HeartbeatMessage;
using net::kCapMetrics;
using net::setCapabilityMaskForTest;
using net::Socket;
using net::WorkerConfig;
using net::WorkerOutcome;
using net::WorkerStats;

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

/** Round trips the worker-side net.heartbeat_rtt_us series holds. */
std::uint64_t
rttCount()
{
    const obs::Snapshot snap = obs::Registry::instance().scrape();
    const obs::SnapshotMetric *m = snap.find("net.heartbeat_rtt_us");
    return m ? m->count() : 0;
}

/** A small but non-trivial plan fixture. */
ShardPlan
samplePlan()
{
    ShardPlan plan;
    plan.experiments = {"fig6", "fig3"};
    plan.sliceCount = 3;
    plan.traceStride = 96;
    plan.uopsPerTrace = 2'000;
    plan.cacheUops = 2'000;
    plan.adderOperandSamples = 400;
    plan.profilingTraces = 100;
    plan.mechanismTimeScale = 0.05;
    return plan;
}

// ------------------------------------------------------- framing

TEST(NetProtocol, FrameRoundTripsAcrossSizes)
{
    LoopbackPair pair = LoopbackPair::make();
    const std::string payloads[] = {
        std::string(),
        std::string("x"),
        std::string(1'000, 'a'),
        std::string(1 << 20, '\xff'),
    };
    for (const std::string &payload : payloads) {
        ASSERT_TRUE(net::sendFrame(pair.client,
                                   MessageType::Result, payload));
        Frame frame;
        ASSERT_EQ(net::recvFrame(pair.server, frame, 2'000),
                  RecvStatus::Ok);
        EXPECT_EQ(frame.type, MessageType::Result);
        EXPECT_EQ(frame.payload, payload);
    }
}

TEST(NetProtocol, BackToBackFramesKeepBoundaries)
{
    LoopbackPair pair = LoopbackPair::make();
    ASSERT_TRUE(
        net::sendFrame(pair.client, MessageType::Hello, "one"));
    ASSERT_TRUE(
        net::sendFrame(pair.client, MessageType::Assign, "two2"));
    Frame frame;
    ASSERT_EQ(net::recvFrame(pair.server, frame, 2'000),
              RecvStatus::Ok);
    EXPECT_EQ(frame.type, MessageType::Hello);
    EXPECT_EQ(frame.payload, "one");
    ASSERT_EQ(net::recvFrame(pair.server, frame, 2'000),
              RecvStatus::Ok);
    EXPECT_EQ(frame.type, MessageType::Assign);
    EXPECT_EQ(frame.payload, "two2");
}

TEST(NetProtocol, TruncatedFrameIsClosedNotACrash)
{
    // Header cut mid-way.
    {
        LoopbackPair pair = LoopbackPair::make();
        const std::string frame =
            net::encodeFrame(MessageType::Hello, "payload");
        ASSERT_TRUE(pair.client.sendAll(frame.data(), 10));
        pair.client.close();
        Frame out;
        EXPECT_EQ(net::recvFrame(pair.server, out, 2'000),
                  RecvStatus::Closed);
    }
    // Payload cut mid-way.
    {
        LoopbackPair pair = LoopbackPair::make();
        const std::string frame =
            net::encodeFrame(MessageType::Hello, "payload");
        ASSERT_TRUE(
            pair.client.sendAll(frame.data(), frame.size() - 3));
        pair.client.close();
        Frame out;
        EXPECT_EQ(net::recvFrame(pair.server, out, 2'000),
                  RecvStatus::Closed);
    }
}

TEST(NetProtocol, CorruptFramesAreRejected)
{
    const std::string good =
        net::encodeFrame(MessageType::Hello, "payload");

    // One flipped byte anywhere must yield Corrupt (flipping a
    // length byte can also starve the receive into Closed, but
    // never Ok).
    for (std::size_t pos : {std::size_t(0), std::size_t(5),
                            std::size_t(9), good.size() - 1}) {
        LoopbackPair pair = LoopbackPair::make();
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
        ASSERT_TRUE(pair.client.sendAll(bad.data(), bad.size()));
        pair.client.close();
        Frame out;
        EXPECT_NE(net::recvFrame(pair.server, out, 2'000),
                  RecvStatus::Ok)
            << "flipped byte at " << pos;
    }
}

TEST(NetProtocol, ForeignVersionAndOversizeLengthRejected)
{
    // Hand-build a header with a foreign version.
    {
        LoopbackPair pair = LoopbackPair::make();
        ByteWriter w;
        w.u32(net::kProtocolMagic);
        w.u32(net::kProtocolVersion + 7);
        w.u32(static_cast<std::uint32_t>(MessageType::Hello));
        w.u32(0);
        w.u64(0);
        w.u64(0);
        ASSERT_TRUE(
            pair.client.sendAll(w.data().data(), w.data().size()));
        Frame out;
        EXPECT_EQ(net::recvFrame(pair.server, out, 2'000),
                  RecvStatus::Corrupt);
    }
    // And one with an implausible payload length.
    {
        LoopbackPair pair = LoopbackPair::make();
        ByteWriter w;
        w.u32(net::kProtocolMagic);
        w.u32(net::kProtocolVersion);
        w.u32(static_cast<std::uint32_t>(MessageType::Result));
        w.u32(0);
        w.u64(net::kMaxFramePayload + 1);
        w.u64(0);
        ASSERT_TRUE(
            pair.client.sendAll(w.data().data(), w.data().size()));
        Frame out;
        EXPECT_EQ(net::recvFrame(pair.server, out, 2'000),
                  RecvStatus::Corrupt);
    }
}

TEST(NetProtocol, RecvTimesOutInsteadOfHanging)
{
    LoopbackPair pair = LoopbackPair::make();
    Frame out;
    EXPECT_EQ(net::recvFrame(pair.server, out, 150),
              RecvStatus::Closed);
}

// ---------------------------------------------- message payloads

/** A protocol-version-2 Hello payload: u32 version, u32 host CPUs,
 *  u64 capabilities. */
std::string
v2HelloPayload(std::uint32_t host_cpus)
{
    ByteWriter w;
    w.u32(2);
    w.u32(host_cpus);
    w.u64(0);
    return std::string(w.view());
}

TEST(NetProtocol, MessageCodecsRoundTrip)
{
    {
        HelloMessage in;
        in.hostCpus = 12;
        ByteWriter w;
        in.encode(w);
        HelloMessage out;
        ByteReader r(w.view());
        ASSERT_TRUE(out.decode(r));
        EXPECT_EQ(out.hostCpus, 12u);
        EXPECT_EQ(w.view().size(), 4u);
    }
    {
        AssignMessage in;
        in.sliceIndex = 2;
        in.plan = samplePlan();
        ByteWriter w;
        in.encode(w);
        AssignMessage out;
        ByteReader r(w.view());
        ASSERT_TRUE(out.decode(r));
        EXPECT_EQ(out.sliceIndex, 2u);
        EXPECT_EQ(out.plan, in.plan);
    }
    {
        ResultMessage in;
        in.sliceIndex = 1;
        in.simSeconds = 1.25;
        in.entries = std::string("\x00\x01payload", 9);
        ByteWriter w;
        in.encode(w);
        ResultMessage out;
        ByteReader r(w.view());
        ASSERT_TRUE(out.decode(r));
        EXPECT_EQ(out.sliceIndex, 1u);
        EXPECT_EQ(out.simSeconds, 1.25);
        EXPECT_EQ(out.entries, in.entries);
    }
}

TEST(NetProtocol, MessageDecodersRejectBadPayloads)
{
    // A Hello in the version-2 layout: its bytes run past the one
    // field of the current layout.
    {
        HelloMessage out;
        const std::string v2 = v2HelloPayload(8);
        ByteReader r(v2);
        EXPECT_FALSE(out.decode(r));
    }
    // Assign whose slice index is outside the plan.
    {
        AssignMessage in;
        in.sliceIndex = 10; // plan has 3 slices
        in.plan = samplePlan();
        ByteWriter w;
        in.encode(w);
        AssignMessage out;
        ByteReader r(w.view());
        EXPECT_FALSE(out.decode(r));
    }
    // Truncated Result.
    {
        ResultMessage in;
        in.entries = "0123456789";
        ByteWriter w;
        in.encode(w);
        const std::string_view whole = w.view();
        ResultMessage out;
        ByteReader r(whole.substr(0, whole.size() - 4));
        EXPECT_FALSE(out.decode(r));
    }
}

// ------------------------------------------------------ ShardPlan

TEST(ShardPlanCodec, RoundTripsAndValidates)
{
    const ShardPlan plan = samplePlan();
    ByteWriter w;
    plan.encode(w);

    ShardPlan out;
    ByteReader r(w.view());
    ASSERT_TRUE(out.decode(r));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(out, plan);

    // Any truncation fails cleanly.
    const std::string_view whole = w.view();
    for (std::size_t cut = 0; cut < whole.size();
         cut += std::max<std::size_t>(1, whole.size() / 17)) {
        ShardPlan bad;
        ByteReader rr(whole.substr(0, cut));
        EXPECT_FALSE(bad.decode(rr)) << "cut at " << cut;
    }
}

TEST(ShardPlanCodec, RejectsOutOfRangeFields)
{
    // A zero stride (division hazard downstream) must not decode.
    ShardPlan plan = samplePlan();
    plan.traceStride = 0;
    ByteWriter w;
    plan.encode(w);
    ShardPlan out;
    ByteReader r(w.view());
    EXPECT_FALSE(out.decode(r));

    // Neither must an absurd experiment count (corrupt length).
    ByteWriter w2;
    w2.u8(0x50); // tag
    w2.u8(1);    // version
    w2.u32(1u << 30);
    ShardPlan out2;
    ByteReader r2(w2.view());
    EXPECT_FALSE(out2.decode(r2));
}

TEST(ShardPlanCodec, SliceOptionsMirrorPlanFields)
{
    const ShardPlan plan = samplePlan();
    const ExperimentOptions options = plan.sliceOptions(2);
    EXPECT_EQ(options.traceStride, plan.traceStride);
    EXPECT_EQ(options.uopsPerTrace, plan.uopsPerTrace);
    EXPECT_EQ(options.cacheUops, plan.cacheUops);
    EXPECT_EQ(options.adderOperandSamples,
              plan.adderOperandSamples);
    EXPECT_EQ(options.profilingTraces, plan.profilingTraces);
    EXPECT_EQ(options.mechanismTimeScale,
              plan.mechanismTimeScale);
    EXPECT_EQ(options.shardIndex, 2u);
    EXPECT_EQ(options.shardCount, plan.sliceCount);
    EXPECT_EQ(options.cache, nullptr);
    EXPECT_EQ(options.pool, nullptr);
}

TEST(ShardPlanCodec, RunPlanSliceRejectsUnknownWork)
{
    const WorkloadSet workload;
    ResultCache cache;
    ShardPlan plan = samplePlan();
    plan.experiments = {"no-such-experiment"};
    EXPECT_FALSE(
        runPlanSlice(workload, plan, 0, 1, nullptr, cache));
    EXPECT_EQ(cache.size(), 0u);

    // And an out-of-range slice.
    EXPECT_FALSE(runPlanSlice(workload, samplePlan(),
                              samplePlan().sliceCount, 1, nullptr,
                              cache));
}

// ------------------------------------------------- end-to-end run

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

TEST(Distributed, LoopbackCoordinatorWithTwoWorkersIsBitIdentical)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    const std::string reference =
        renderPlan(workload, plan, nullptr);

    ResultCache collected;
    CoordinatorConfig config;
    config.workersExpected = 2;
    config.sliceTimeoutMs = 60'000;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;

    std::thread serve([&] { coordinator.run(); });
    auto workerBody = [&](WorkerStats *stats,
                          WorkerOutcome *outcome) {
        WorkerConfig wc;
        wc.host = "127.0.0.1";
        wc.port = coordinator.port();
        wc.hostCpus = 1;
        ResultCache local;
        std::string werr;
        *outcome =
            net::runWorker(wc, workload, local, stats, &werr);
    };
    WorkerStats stats[2];
    WorkerOutcome outcomes[2];
    std::thread w0(workerBody, &stats[0], &outcomes[0]);
    std::thread w1(workerBody, &stats[1], &outcomes[1]);
    w0.join();
    w1.join();
    serve.join();

    EXPECT_EQ(outcomes[0], WorkerOutcome::Finished);
    EXPECT_EQ(outcomes[1], WorkerOutcome::Finished);
    EXPECT_EQ(stats[0].slicesRun + stats[1].slicesRun,
              plan.sliceCount);

    const net::CoordinatorStats &cs = coordinator.stats();
    EXPECT_EQ(cs.slices, plan.sliceCount);
    EXPECT_EQ(cs.workersSeen, 2u);
    EXPECT_EQ(cs.reassignments, 0u);

    // The final render must draw every per-trace result from the
    // collected entries (0 stores) and be byte-identical to the
    // unsharded reference.
    const std::string merged =
        renderPlan(workload, plan, &collected);
    EXPECT_EQ(merged, reference);
    EXPECT_EQ(collected.stats().stores, 0u);
    EXPECT_GT(collected.stats().hits, 0u);
}

TEST(Distributed, WorkerDroppedMidSliceIsReassigned)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    const std::string reference =
        renderPlan(workload, plan, nullptr);

    ResultCache collected;
    CoordinatorConfig config;
    config.workersExpected = 2;
    config.sliceTimeoutMs = 60'000;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    // The saboteur takes its first assignment and drops the
    // connection without replying: a deterministic
    // kill-mid-slice.
    const fake::Report bad = fake::closeAfterAssign(coordinator.port());
    EXPECT_TRUE(bad.assigned);

    // A healthy worker then completes the whole run, including
    // the forfeited slice.
    WorkerConfig good;
    good.host = "127.0.0.1";
    good.port = coordinator.port();
    ResultCache good_cache;
    WorkerStats good_stats;
    WorkerOutcome good_outcome;
    std::thread rescuer([&] {
        std::string werr;
        good_outcome = net::runWorker(good, workload, good_cache,
                                      &good_stats, &werr);
    });
    rescuer.join();
    serve.join();

    EXPECT_EQ(good_outcome, WorkerOutcome::Finished);
    EXPECT_EQ(good_stats.slicesRun, plan.sliceCount);
    EXPECT_GE(coordinator.stats().reassignments, 1u);

    const std::string merged =
        renderPlan(workload, plan, &collected);
    EXPECT_EQ(merged, reference);
    EXPECT_EQ(collected.stats().stores, 0u);
}

// --------------------------------------- entry streams over wire

TEST(Distributed, ExportImportBytesRoundTripsEntries)
{
    ResultCache a;
    const Hash128 k1{0x1111, 0x2222};
    const Hash128 k2{0x3333, 0x4444};
    a.store(k1, "first payload");
    a.store(k2, "second payload");
    std::string bytes;
    a.exportToBytes(bytes);

    ResultCache b;
    ASSERT_TRUE(b.importFromBytes(bytes));
    std::string payload;
    ASSERT_TRUE(b.lookup(k1, payload));
    EXPECT_EQ(payload, "first payload");
    ASSERT_TRUE(b.lookup(k2, payload));
    EXPECT_EQ(payload, "second payload");

    // Importing the same stream twice deduplicates (the duplicate
    // Result case), and a flipped byte degrades to a dropped
    // record, never a wrong payload.
    ASSERT_TRUE(b.importFromBytes(bytes));
    EXPECT_EQ(b.size(), 2u);

    std::string corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x10;
    ResultCache c;
    ASSERT_TRUE(c.importFromBytes(corrupt));
    EXPECT_LE(c.size(), 2u);
    std::string p1;
    std::string p2;
    const bool has1 = c.lookup(k1, p1);
    const bool has2 = c.lookup(k2, p2);
    if (has1) {
        EXPECT_EQ(p1, "first payload");
    }
    if (has2) {
        EXPECT_EQ(p2, "second payload");
    }
    EXPECT_LT(static_cast<int>(has1) + static_cast<int>(has2), 2);

    // A foreign header is rejected outright.
    ResultCache d;
    EXPECT_FALSE(d.importFromBytes("not a shard stream"));
}

// ------------------------------------------------- protocol fuzz

TEST(NetFuzz, RandomByteBlobsAreRejectedOrClosed)
{
    FuzzRng rng(0x5eed0001);
    for (int i = 0; i < 32; ++i) {
        LoopbackPair pair = LoopbackPair::make();
        std::string blob(rng.below(120), '\0');
        for (char &c : blob)
            c = static_cast<char>(rng.next());
        if (!blob.empty()) {
            ASSERT_TRUE(
                pair.client.sendAll(blob.data(), blob.size()));
        }
        pair.client.close();
        Frame out;
        EXPECT_NE(net::recvFrame(pair.server, out, 2'000),
                  RecvStatus::Ok)
            << "seeded blob " << i;
    }
}

/** Retired message types -- the job conversation (6 SubmitJob,
 *  8 JobUpdate), job control (7 JobStatus, 9 CancelJob) and a
 *  metrics query (11, 12): a frame of any of them must fail the
 *  header check like any unknown type. */
constexpr MessageType kRetiredTypes[] = {
    static_cast<MessageType>(6), static_cast<MessageType>(7),
    static_cast<MessageType>(8), static_cast<MessageType>(9),
    static_cast<MessageType>(11), static_cast<MessageType>(12)};

bool
retiredType(MessageType type)
{
    return std::find(std::begin(kRetiredTypes), std::end(kRetiredTypes),
                     type) != std::end(kRetiredTypes);
}

/** @p frame re-stamped with header version @p version. */
std::string
withVersion(std::string frame, std::uint32_t version)
{
    for (int i = 0; i < 4; ++i)
        frame[4 + i] = static_cast<char>(version >> (8 * i));
    return frame;
}

TEST(NetFuzz, MutatedFramesNeverDeliverAlteredPayloads)
{
    // A corpus of one valid frame per conversation direction, plus
    // older-version frames (version-1 headers, a version-2 Hello
    // payload) and frames of the retired types that must never be
    // accepted as they stand.
    struct Seed
    {
        MessageType type;
        std::string payload;
        std::uint32_t version;
    };
    std::vector<Seed> corpus;
    const auto add = [&](MessageType type, const auto &message,
                         std::uint32_t version = net::kProtocolVersion) {
        ByteWriter w;
        message.encode(w);
        corpus.push_back({type, std::string(w.view()), version});
    };
    net::HelloMessage hello;
    hello.hostCpus = 8;
    add(MessageType::Hello, hello);
    add(MessageType::Hello, hello, 1);
    corpus.push_back(
        {MessageType::Hello, v2HelloPayload(8), net::kProtocolVersion});
    net::HeartbeatMessage beat;
    beat.sliceIndex = 1;
    beat.sequence = 42;
    add(MessageType::Heartbeat, beat);
    add(MessageType::Heartbeat, beat, 1);
    HeartbeatAckMessage ack;
    ack.sequence = 42;
    add(MessageType::HeartbeatAck, ack);
    ResultMessage result;
    result.sliceIndex = 2;
    result.entries = std::string(256, '\x5a');
    add(MessageType::Result, result);
    AssignMessage assign;
    assign.sliceIndex = 1;
    assign.plan = samplePlan();
    add(MessageType::Assign, assign);
    for (const MessageType type : kRetiredTypes)
        corpus.push_back({type, "penelope_x 1\n", net::kProtocolVersion});

    // Unmutated: current-version frames verify, version-1 and
    // retired-type frames are rejected at the header, and a
    // version-2 Hello payload fails its decode.
    for (const Seed &seed : corpus) {
        LoopbackPair pair = LoopbackPair::make();
        const std::string frame = withVersion(
            net::encodeFrame(seed.type, seed.payload), seed.version);
        ASSERT_TRUE(pair.client.sendAll(frame.data(), frame.size()));
        Frame out;
        const RecvStatus status =
            net::recvFrame(pair.server, out, 2'000);
        if (seed.version != net::kProtocolVersion ||
            retiredType(seed.type)) {
            EXPECT_EQ(status, RecvStatus::Corrupt);
            continue;
        }
        ASSERT_EQ(status, RecvStatus::Ok);
        if (seed.type == MessageType::Hello) {
            net::HelloMessage decoded;
            ByteReader r(out.payload);
            EXPECT_EQ(decoded.decode(r),
                      seed.payload != v2HelloPayload(8));
        }
    }

    FuzzRng rng(0x5eed0002);
    for (int i = 0; i < 128; ++i) {
        const Seed &seed = corpus[rng.below(
            static_cast<std::uint32_t>(corpus.size()))];
        std::string frame = withVersion(
            net::encodeFrame(seed.type, seed.payload), seed.version);
        const bool truncate = rng.below(3) == 0;
        if (truncate) {
            frame.resize(rng.below(
                static_cast<std::uint32_t>(frame.size())));
        } else {
            const unsigned flips = 1 + rng.below(3);
            for (unsigned f = 0; f < flips; ++f) {
                const std::uint32_t pos = rng.below(
                    static_cast<std::uint32_t>(frame.size()));
                frame[pos] = static_cast<char>(
                    frame[pos] ^ (1u << rng.below(8)));
            }
        }

        LoopbackPair pair = LoopbackPair::make();
        if (!frame.empty()) {
            ASSERT_TRUE(
                pair.client.sendAll(frame.data(), frame.size()));
        }
        pair.client.close();
        Frame out;
        const RecvStatus status =
            net::recvFrame(pair.server, out, 2'000);
        if (truncate) {
            // A strict prefix can never verify.
            EXPECT_NE(status, RecvStatus::Ok) << "iteration " << i;
        } else if (status == RecvStatus::Ok) {
            // Bit flips may land in the checksum-exempt flags word
            // (or flip a version-1 header to the current version);
            // an accepted frame must still carry the exact payload.
            EXPECT_FALSE(retiredType(out.type)) << "iteration " << i;
            EXPECT_EQ(out.type, seed.type) << "iteration " << i;
            EXPECT_EQ(out.payload, seed.payload) << "iteration " << i;
        }
    }
}

/** An older peer is dropped at its Hello -- by the frame header
 *  (versions 1 to 4) or by the Hello payload (the version-2
 *  layout) -- before it can claim a slice. */
TEST(NetFuzz, V1HelloIsDroppedWithoutClaimingASlice)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    ResultCache collected;
    CoordinatorConfig config;
    config.sliceTimeoutMs = 60'000;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    HelloMessage hello;
    hello.hostCpus = 2;
    ByteWriter current;
    hello.encode(current);
    const std::string frames[] = {
        withVersion(
            net::encodeFrame(MessageType::Hello, current.view()), 1),
        withVersion(
            net::encodeFrame(MessageType::Hello, current.view()), 2),
        withVersion(
            net::encodeFrame(MessageType::Hello, current.view()), 3),
        withVersion(
            net::encodeFrame(MessageType::Hello, current.view()), 4),
        net::encodeFrame(MessageType::Hello, v2HelloPayload(2)),
    };
    for (const std::string &frame : frames) {
        Socket conn = Socket::connectTo("127.0.0.1",
                                        coordinator.port(), &error);
        ASSERT_TRUE(conn.valid()) << error;
        ASSERT_TRUE(conn.sendAll(frame.data(), frame.size()));
        // The coordinator hangs up without a word: no Assign.
        Frame out;
        EXPECT_EQ(net::recvFrame(conn, out, 10'000),
                  RecvStatus::Closed);
    }
    EXPECT_EQ(coordinator.jobState(), net::JobState::Accepted);

    // A current worker then runs every slice, each assigned once.
    WorkerConfig wc;
    wc.port = coordinator.port();
    ResultCache local;
    std::string werr;
    EXPECT_EQ(net::runWorker(wc, workload, local, nullptr, &werr),
              WorkerOutcome::Finished);
    serve.join();

    const net::CoordinatorStats &cs = coordinator.stats();
    EXPECT_EQ(cs.workersSeen, 1u);
    EXPECT_EQ(cs.assignments, plan.sliceCount);
    EXPECT_EQ(cs.reassignments, 0u);
    EXPECT_EQ(coordinator.jobState(), net::JobState::Complete);
}

TEST(NetFuzz, CoordinatorSurvivesFrameStormThenServesCleanly)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    const std::string reference =
        renderPlan(workload, plan, nullptr);

    ResultCache collected;
    CoordinatorConfig config;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    // The storm: seeded hostile connections throwing garbage
    // blobs, corrupted frames and out-of-protocol first frames at
    // the listener.  None may crash or wedge the coordinator, and
    // none may claim a slice.
    FuzzRng rng(0x5eed0003);
    for (int i = 0; i < 25; ++i) {
        Socket conn = Socket::connectTo("127.0.0.1",
                                        coordinator.port(), &error);
        ASSERT_TRUE(conn.valid()) << error;
        switch (i % 5) {
          case 0: { // raw noise
            std::string blob(1 + rng.below(200), '\0');
            for (char &c : blob)
                c = static_cast<char>(rng.next());
            conn.sendAll(blob.data(), blob.size());
            break;
          }
          case 1: { // a Hello with a flipped payload byte
            HelloMessage hello;
            hello.hostCpus = 1 + rng.below(64);
            ByteWriter w;
            hello.encode(w);
            std::string frame =
                net::encodeFrame(MessageType::Hello, w.view());
            frame[net::kFrameHeaderBytes +
                  rng.below(static_cast<std::uint32_t>(
                      frame.size() - net::kFrameHeaderBytes))] ^=
                0x10;
            conn.sendAll(frame.data(), frame.size());
            break;
          }
          case 2: { // out-of-protocol first frame
            net::HeartbeatMessage beat;
            beat.sliceIndex = rng.below(8);
            beat.sequence = rng.next();
            ByteWriter w;
            beat.encode(w);
            net::sendFrame(conn, MessageType::Heartbeat, w.view());
            break;
          }
          case 3: { // a Result before any Hello or Assign
            ResultMessage result;
            result.sliceIndex = rng.below(plan.sliceCount);
            result.entries = std::string(64, '\x5a');
            ByteWriter w;
            result.encode(w);
            net::sendFrame(conn, MessageType::Result, w.view());
            break;
          }
          case 4: { // a well-formed frame of a retired type
            const MessageType type =
                kRetiredTypes[(i / 5) % std::size(kRetiredTypes)];
            net::sendFrame(conn, type, "");
            break;
          }
        }
        if (i % 5 != 0) {
            // A complete frame that is not a valid Hello: the
            // coordinator hangs up without a reply.
            Frame out;
            EXPECT_EQ(net::recvFrame(conn, out, 10'000),
                      RecvStatus::Closed)
                << "storm connection " << i;
        }
        conn.close();
    }

    // After the storm, a clean worker completes the job, and the
    // coordinator's own store renders bit-identically.
    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = coordinator.port();
    ResultCache worker_cache;
    std::string werr;
    EXPECT_EQ(net::runWorker(wc, workload, worker_cache, nullptr,
                             &werr),
              WorkerOutcome::Finished)
        << werr;
    serve.join();

    EXPECT_EQ(coordinator.jobState(), net::JobState::Complete);
    EXPECT_EQ(coordinator.stats().workersSeen, 1u);
    EXPECT_EQ(coordinator.stats().assignments, plan.sliceCount);
    const std::string rendered =
        renderPlan(workload, plan, &collected);
    EXPECT_EQ(rendered, reference);
    EXPECT_EQ(collected.stats().stores, 0u);
}

/** Every Assign carries a ShardPlan: a mutant either
 *  fails to decode or re-encodes to exactly its own bytes. */
TEST(NetFuzz, MutatedShardPlansAreRejectedOrRoundTripExactly)
{
    ByteWriter w;
    samplePlan().encode(w);
    const std::string bytes(w.view());
    FuzzRng rng(0x5eed0005);
    unsigned accepted = 0;
    for (int i = 0; i < 512; ++i) {
        const std::string mutant = mutate(bytes, rng);
        ShardPlan plan;
        ByteReader r(mutant);
        if (!plan.decode(r) || !r.atEnd())
            continue;
        ++accepted;
        ByteWriter back;
        plan.encode(back);
        EXPECT_EQ(back.view(), mutant) << "iteration " << i;
    }
    EXPECT_GT(accepted, 0u); // low-order field flips still decode
}

// ---------------------------------------------- heartbeat acks

/** A heartbeat is u32 slice + u64 sequence: 12 bytes.  The
 *  20-byte form of protocol version 4 (an empty snapshot tail) no
 *  longer decodes. */
TEST(NetProtocol, HeartbeatHasOneLayout)
{
    HeartbeatMessage in;
    in.sliceIndex = 3;
    in.sequence = 41;
    ByteWriter w;
    in.encode(w);
    ASSERT_EQ(w.view().size(), 12u);

    HeartbeatMessage out;
    ByteReader r(w.view());
    ASSERT_TRUE(out.decode(r));
    EXPECT_EQ(out.sliceIndex, 3u);
    EXPECT_EQ(out.sequence, 41u);

    ByteWriter v4;
    v4.u32(3);
    v4.u64(41);
    v4.u64(0);
    ASSERT_EQ(v4.view().size(), 20u);
    HeartbeatMessage legacy;
    ByteReader rl(v4.view());
    EXPECT_FALSE(legacy.decode(rl));
}

TEST(NetProtocol, MetricsMessageCodecsRoundTrip)
{
    HeartbeatAckMessage in;
    in.sequence = 99;
    ByteWriter w;
    in.encode(w);
    EXPECT_EQ(w.view().size(), 8u);
    HeartbeatAckMessage out;
    ByteReader r(w.view());
    ASSERT_TRUE(out.decode(r));
    EXPECT_EQ(out.sequence, 99u);
}

/** Emulate a peer without kCapMetrics: with the bit masked off no
 *  heartbeat is acked, so even a recording registry gains no RTT,
 *  and the run still converges bit-identically. */
TEST(Distributed, NoMetricsCapabilityDegradesCleanly)
{
    const obs::ScopedEnable enable;
    const std::uint64_t rtts = rttCount();
    setCapabilityMaskForTest(kCapMetrics);
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    const std::string reference =
        renderPlan(workload, plan, nullptr);

    ResultCache collected;
    CoordinatorConfig config;
    config.sliceTimeoutMs = 60'000;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = coordinator.port();
    wc.hostCpus = 1;
    wc.heartbeatIntervalMs = 5;
    ResultCache local;
    WorkerStats stats;
    std::string werr;
    const WorkerOutcome outcome =
        net::runWorker(wc, workload, local, &stats, &werr);
    serve.join();
    setCapabilityMaskForTest(0);

    EXPECT_EQ(outcome, WorkerOutcome::Finished);
    EXPECT_EQ(rttCount(), rtts);
    const std::string merged =
        renderPlan(workload, plan, &collected);
    EXPECT_EQ(merged, reference);
}

/** With full capabilities and a recording registry, the
 *  coordinator acks each heartbeat and the worker times the round
 *  trip into net.heartbeat_rtt_us; the run still renders
 *  bit-identically.  Gated on a heartbeat having actually fired
 *  (slices can finish under the interval). */
TEST(Distributed, HeartbeatAcksFeedWorkerRtt)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP();
    const obs::ScopedEnable enable;
    const WorkloadSet workload;
    // Slices long enough for several 2 ms beats on any host.
    ShardPlan plan = samplePlan();
    plan.uopsPerTrace = plan.cacheUops = 20'000;
    const std::string reference =
        renderPlan(workload, plan, nullptr);
    const std::uint64_t rtts = rttCount();

    ResultCache collected;
    CoordinatorConfig config;
    config.sliceTimeoutMs = 60'000;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = coordinator.port();
    wc.hostCpus = 1;
    wc.heartbeatIntervalMs = 2;
    ResultCache local;
    WorkerStats stats;
    std::string werr;
    const WorkerOutcome outcome =
        net::runWorker(wc, workload, local, &stats, &werr);
    serve.join();

    EXPECT_EQ(outcome, WorkerOutcome::Finished);
    if (stats.heartbeatsSent > 0) {
        EXPECT_GT(rttCount(), rtts);
    }
    const std::string merged =
        renderPlan(workload, plan, &collected);
    EXPECT_EQ(merged, reference);
}

/** A coordinator whose registry is off does not ask for acks, and
 *  no frame switches the registry: an in-process worker leaves the
 *  shared registry off. */
TEST(Distributed, ObsOffCoordinatorLeavesWorkerTelemetryOff)
{
    const obs::ScopedEnable disable(false);
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();

    ResultCache collected;
    CoordinatorConfig config;
    config.sliceTimeoutMs = 60'000;
    Coordinator coordinator(plan, collected, config);
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = coordinator.port();
    wc.hostCpus = 1;
    wc.heartbeatIntervalMs = 2;
    ResultCache local;
    std::string werr;
    EXPECT_EQ(net::runWorker(wc, workload, local, nullptr, &werr),
              WorkerOutcome::Finished);
    serve.join();

    EXPECT_FALSE(obs::enabled());
}

} // namespace
} // namespace penelope
