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
#include "net/coordinator.hh"
#include "net/protocol.hh"
#include "net/worker.hh"
#include "obs/exposition.hh"
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
        EXPECT_EQ(out.protocolVersion, net::kProtocolVersion);
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
        in.hostCpus = 4;
        in.simSeconds = 1.25;
        in.entries = std::string("\x00\x01payload", 9);
        ByteWriter w;
        in.encode(w);
        ResultMessage out;
        ByteReader r(w.view());
        ASSERT_TRUE(out.decode(r));
        EXPECT_EQ(out.sliceIndex, 1u);
        EXPECT_EQ(out.hostCpus, 4u);
        EXPECT_EQ(out.simSeconds, 1.25);
        EXPECT_EQ(out.entries, in.entries);
    }
}

TEST(NetProtocol, MessageDecodersRejectBadPayloads)
{
    // Hello with a foreign protocol version.
    {
        HelloMessage in;
        in.protocolVersion = 99;
        ByteWriter w;
        in.encode(w);
        HelloMessage out;
        ByteReader r(w.view());
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

/** Deterministic xorshift64 stream for the fuzz suites. */
struct FuzzRng
{
    std::uint64_t state;

    explicit FuzzRng(std::uint64_t seed) : state(seed ? seed : 1) {}

    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }

    std::uint32_t
    below(std::uint32_t n)
    {
        return n ? static_cast<std::uint32_t>(next() % n) : 0;
    }
};

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

/** Message types a retired metrics query used: a frame of either
 *  must fail the header check like any unknown type. */
constexpr MessageType kRetiredTypes[] = {static_cast<MessageType>(11),
                                         static_cast<MessageType>(12)};

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
    // version-1 frames (header and Hello payload) and frames of the
    // retired types that must never be accepted as they stand.
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
    net::HelloMessage v1_hello = hello;
    v1_hello.protocolVersion = 1;
    add(MessageType::Hello, v1_hello);
    net::HeartbeatMessage beat;
    beat.sliceIndex = 1;
    beat.sequence = 42;
    add(MessageType::Heartbeat, beat);
    add(MessageType::Heartbeat, beat, 1);
    beat.metrics = std::string(40, '\x11');
    add(MessageType::Heartbeat, beat);
    ResultMessage result;
    result.sliceIndex = 2;
    result.entries = std::string(256, '\x5a');
    add(MessageType::Result, result);
    net::SubmitJobMessage submit;
    submit.plan = samplePlan();
    add(MessageType::SubmitJob, submit);
    for (const MessageType type : kRetiredTypes)
        corpus.push_back({type, "penelope_x 1\n", net::kProtocolVersion});

    // Unmutated: current-version frames verify, version-1 and
    // retired-type frames are rejected at the header, and a
    // version-1 Hello payload fails its decode.
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
            const bool ok = decoded.decode(r);
            EXPECT_EQ(ok, decoded.protocolVersion ==
                              net::kProtocolVersion);
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

/** A version-1 peer is dropped at its Hello -- by the frame header
 *  or by the Hello payload -- before it can claim a slice. */
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
    hello.protocolVersion = 1;
    ByteWriter v1_payload;
    hello.encode(v1_payload);
    const std::string frames[] = {
        withVersion(
            net::encodeFrame(MessageType::Hello, current.view()), 1),
        net::encodeFrame(MessageType::Hello, v1_payload.view()),
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
    EXPECT_EQ(coordinator.jobState(0), net::JobState::Accepted);

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
    EXPECT_EQ(coordinator.jobState(0), net::JobState::Complete);
}

TEST(NetFuzz, CoordinatorSurvivesFrameStormThenServesCleanly)
{
    const WorkloadSet workload;
    const ShardPlan plan = samplePlan();
    const std::string reference =
        renderPlan(workload, plan, nullptr);

    ResultCache collected;
    CoordinatorConfig config;
    Coordinator coordinator(collected, config); // resident
    std::string error;
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] { coordinator.run(); });

    // The storm: seeded hostile connections throwing garbage
    // blobs, corrupted frames and out-of-protocol first frames at
    // the listener.  None may crash or wedge the service.
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
          case 1: { // valid frame, flipped payload byte
            net::JobStatusMessage status;
            status.jobId = rng.below(100);
            ByteWriter w;
            status.encode(w);
            std::string frame = net::encodeFrame(
                MessageType::JobStatus, w.view());
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
          case 3: { // client op for a job that never existed
            net::CancelJobMessage cancel;
            cancel.jobId = 1000 + rng.below(1000);
            ByteWriter w;
            cancel.encode(w);
            net::sendFrame(conn, MessageType::CancelJob, w.view());
            break;
          }
          case 4: { // a well-formed frame of a retired type
            const MessageType type = kRetiredTypes[(i / 5) % 2];
            net::sendFrame(conn, type, "");
            // The coordinator hangs up without a reply.
            Frame out;
            EXPECT_EQ(net::recvFrame(conn, out, 10'000),
                      RecvStatus::Closed)
                << "type " << static_cast<std::uint32_t>(type);
            break;
          }
        }
        conn.close();
    }

    // After the storm, a clean worker + client conversation must
    // complete bit-identically.
    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = coordinator.port();
    ResultCache worker_cache;
    WorkerOutcome outcome = WorkerOutcome::ConnectFailed;
    std::thread worker([&] {
        std::string werr;
        outcome = net::runWorker(wc, workload, worker_cache,
                                 nullptr, &werr);
    });

    Socket client = Socket::connectTo("127.0.0.1",
                                      coordinator.port(), &error);
    ASSERT_TRUE(client.valid()) << error;
    {
        net::SubmitJobMessage submit;
        submit.plan = plan;
        ByteWriter w;
        submit.encode(w);
        ASSERT_TRUE(net::sendFrame(client, MessageType::SubmitJob,
                                   w.view()));
    }
    ResultCache client_cache;
    net::JobUpdateMessage update;
    do {
        Frame frame;
        ASSERT_EQ(net::recvFrame(client, frame, 60'000),
                  RecvStatus::Ok);
        ASSERT_EQ(frame.type, MessageType::JobUpdate);
        ByteReader r(frame.payload);
        ASSERT_TRUE(update.decode(r));
        ASSERT_NE(update.state, net::JobState::Rejected);
        if (!update.entries.empty()) {
            ASSERT_TRUE(
                client_cache.importFromBytes(update.entries));
        }
    } while (!net::jobStateFinal(update.state));
    EXPECT_EQ(update.state, net::JobState::Complete);
    client.close();

    coordinator.requestStop();
    worker.join();
    serve.join();
    EXPECT_EQ(outcome, WorkerOutcome::Finished);

    const std::string rendered =
        renderPlan(workload, plan, &client_cache);
    EXPECT_EQ(rendered, reference);
    EXPECT_EQ(client_cache.stats().stores, 0u);
}

/** A seeded mutant of @p bytes: a strict prefix one time in four,
 *  otherwise one to three bit flips. */
std::string
mutate(std::string bytes, FuzzRng &rng)
{
    const auto size = static_cast<std::uint32_t>(bytes.size());
    if (rng.below(4) == 0) {
        bytes.resize(rng.below(size));
        return bytes;
    }
    for (unsigned f = 1 + rng.below(3); f > 0; --f)
        bytes[rng.below(size)] ^= static_cast<char>(1u << rng.below(8));
    return bytes;
}

/** Whether @p line is one well-formed exposition line: `# TYPE
 *  NAME KIND`, or `NAME[{LABELS}] VALUE` with no stray brace or
 *  space, NAME a penelope_ family in [a-z0-9_]. */
bool
exposable(std::string_view line)
{
    const bool header = line.starts_with("# TYPE ");
    if (header)
        line.remove_prefix(7);
    const std::size_t end =
        line.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_");
    if (!line.starts_with("penelope_") || end == line.npos)
        return false;
    std::string_view rest = line.substr(end);
    if (header)
        return rest == " counter" || rest == " gauge" ||
            rest == " histogram";
    if (rest.starts_with('{')) {
        const std::size_t close = rest.find('}');
        if (close == rest.npos ||
            rest.substr(1, close - 1).find_first_of("{ ") != rest.npos)
            return false;
        rest.remove_prefix(close + 1);
    }
    return rest.size() > 1 && rest[0] == ' ' &&
        rest.find_first_not_of("-0123456789", 1) == rest.npos;
}

/** Worker heartbeats carry a Snapshot the coordinator renders into
 *  its exposition: a mutant either fails to decode or re-encodes to
 *  exactly its own bytes, and what decodes renders only well-formed
 *  Prometheus lines. */
TEST(NetFuzz, MutatedSnapshotsAreRejectedOrRoundTripExactly)
{
    obs::Snapshot snap;
    const auto add = [&](const char *name, obs::MetricKind kind,
                         const char *unit) {
        obs::SnapshotMetric m;
        m.name = name;
        m.kind = kind;
        m.unit = unit;
        m.values.assign(kind == obs::MetricKind::Histogram
                            ? obs::kHistSlots
                            : 1,
                        0x21);
        snap.metrics.push_back(m);
    };
    add("cache.hits.s03", obs::MetricKind::Counter, "1");
    add("net.frames_sent", obs::MetricKind::Counter, "1");
    add("svc.workers_connected", obs::MetricKind::Gauge, "1");
    add("net.heartbeat_rtt_us", obs::MetricKind::Histogram, "us");
    const std::string bytes = snap.encodeToBytes();

    FuzzRng rng(0x5eed0004);
    unsigned accepted = 0;
    for (int i = 0; i < 512; ++i) {
        const std::string mutant = mutate(bytes, rng);
        obs::Snapshot out;
        if (!obs::Snapshot::decodeFromBytes(mutant, out))
            continue;
        ++accepted;
        EXPECT_EQ(out.encodeToBytes(), mutant) << "iteration " << i;
        std::istringstream text(
            obs::renderPrometheusAll(out, {{"worker=\"0\"", out}}));
        for (std::string line; std::getline(text, line);) {
            EXPECT_TRUE(exposable(line))
                << "iteration " << i << ": " << line;
        }
    }
    EXPECT_GT(accepted, 0u); // value and kind flips still decode
}

/** Every Assign and SubmitJob carries a ShardPlan: a mutant either
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

// ------------------------------------------- metrics extensions

/** A heartbeat is u32 slice + u64 sequence + u64 snapshot length +
 *  snapshot bytes.  Without telemetry the length is present and 0;
 *  the 12-byte form of protocol version 1 no longer decodes. */
TEST(NetProtocol, HeartbeatHasOneLayout)
{
    HeartbeatMessage in;
    in.sliceIndex = 3;
    in.sequence = 41;
    ByteWriter w;
    in.encode(w);
    ASSERT_EQ(w.view().size(), 20u);

    HeartbeatMessage out;
    ByteReader r(w.view());
    ASSERT_TRUE(out.decode(r));
    EXPECT_EQ(out.sliceIndex, 3u);
    EXPECT_EQ(out.sequence, 41u);
    EXPECT_TRUE(out.metrics.empty());

    HeartbeatMessage legacy;
    ByteReader rl(w.view().substr(0, 12));
    EXPECT_FALSE(legacy.decode(rl));
}

TEST(NetProtocol, HeartbeatMetricsTailRoundTrips)
{
    HeartbeatMessage in;
    in.sliceIndex = 1;
    in.sequence = 7;
    in.metrics = std::string("\x01\x00\x00\x00\x00", 5);
    ByteWriter w;
    in.encode(w);
    EXPECT_EQ(w.view().size(), 25u);

    HeartbeatMessage out;
    ByteReader r(w.view());
    ASSERT_TRUE(out.decode(r));
    EXPECT_EQ(out.sequence, 7u);
    EXPECT_EQ(out.metrics, in.metrics);

    // A truncated tail is a decode failure, not an empty field.
    HeartbeatMessage bad;
    ByteReader rt(w.view().substr(0, w.view().size() - 2));
    EXPECT_FALSE(bad.decode(rt));
}

TEST(NetProtocol, MetricsMessageCodecsRoundTrip)
{
    HeartbeatAckMessage in;
    in.sliceIndex = 2;
    in.sequence = 99;
    ByteWriter w;
    in.encode(w);
    HeartbeatAckMessage out;
    ByteReader r(w.view());
    ASSERT_TRUE(out.decode(r));
    EXPECT_EQ(out.sliceIndex, 2u);
    EXPECT_EQ(out.sequence, 99u);
}

/** Emulate a peer without kCapMetrics: with the bit masked off the
 *  whole conversation degrades to the PR-7 feature level -- no
 *  piggybacked snapshots, no acks -- and the run still converges
 *  bit-identically. */
TEST(Distributed, NoMetricsCapabilityDegradesCleanly)
{
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
    EXPECT_TRUE(coordinator.workerSnapshots().empty());
    const std::string merged =
        renderPlan(workload, plan, &collected);
    EXPECT_EQ(merged, reference);
}

/** With full capabilities, worker heartbeats carry snapshots the
 *  coordinator aggregates per worker.  Gated on a heartbeat having
 *  actually fired (slices can finish under the interval). */
TEST(Distributed, MetricsPiggybackReachesCoordinator)
{
    if (!obs::kCompiledIn)
        GTEST_SKIP();
    const WorkloadSet workload;
    // Slices long enough for several 2 ms beats on any host.
    ShardPlan plan = samplePlan();
    plan.uopsPerTrace = plan.cacheUops = 20'000;

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
        const obs::LabeledSnapshots snaps =
            coordinator.workerSnapshots();
        ASSERT_FALSE(snaps.empty());
        EXPECT_EQ(snaps.front().first, "worker=\"0\"");
        EXPECT_FALSE(snaps.front().second.metrics.empty());
        EXPECT_NE(snaps.front().second.find("net.frames_sent"),
                  nullptr);
    }
}

} // namespace
} // namespace penelope
