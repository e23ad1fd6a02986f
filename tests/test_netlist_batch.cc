/**
 * @file
 * Property tests for the word-parallel netlist engine: evaluateBatch
 * of the optimized op stream against the scalar gate-list
 * interpreter bit-for-bit on random netlists (every gate type, batch
 * sizes 1..128 including partial final batches), batched adder sums
 * against scalar sums, and batched-vs-scalar aging identity on the
 * Figure-2 circuit and all three adder topologies, plus the
 * invariants of the shared PMOS slot map (grouping, partition
 * order, copy equality, concurrent trackers).  The scalar
 * interpreter is the one reference the compiled stream is held to.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "adder/idle_inputs.hh"
#include "circuit/aging.hh"
#include "circuit/netlist.hh"
#include "common/bitword.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// ------------------------------------------------------ transpose

TEST(Transpose64, MatchesNaiveGather)
{
    Rng rng(0x7a5);
    std::uint64_t in[64];
    std::uint64_t out[64];
    for (int i = 0; i < 64; ++i)
        in[i] = out[i] = rng();
    transpose64x64(out);
    for (unsigned r = 0; r < 64; ++r)
        for (unsigned c = 0; c < 64; ++c)
            ASSERT_EQ((in[r] >> c) & 1, (out[c] >> r) & 1)
                << "row " << r << " col " << c;
}

TEST(Transpose64, InvolutionRestoresInput)
{
    Rng rng(0x7a6);
    std::uint64_t in[64];
    std::uint64_t m[64];
    for (int i = 0; i < 64; ++i)
        in[i] = m[i] = rng();
    transpose64x64(m);
    transpose64x64(m);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(m[i], in[i]);
}

// ------------------------------------------------- random netlists

/**
 * Build a random netlist exercising every builder (primitive and
 * composite, so the compiled stream sees Inv, Nand2/NandK,
 * Nor2/NorK, TgPass and constants).
 */
Netlist
randomNetlist(Rng &rng, unsigned num_inputs, unsigned num_gates)
{
    Netlist n;
    std::vector<SignalId> pool;
    for (unsigned i = 0; i < num_inputs; ++i)
        pool.push_back(n.addInput());
    pool.push_back(n.addConst(false));
    pool.push_back(n.addConst(true));

    const auto pick = [&] {
        return pool[rng.nextInt(
            static_cast<std::uint32_t>(pool.size()))];
    };
    for (unsigned g = 0; g < num_gates; ++g) {
        SignalId out = invalidSignal;
        switch (rng.nextInt(10)) {
          case 0:
            out = n.addInv(pick());
            break;
          case 1:
            out = n.addNand({pick(), pick()});
            break;
          case 2:
            out = n.addNor({pick(), pick()});
            break;
          case 3: {
            // Wide NAND/NOR: 3..5 fanins exercise the K-ary ops.
            std::vector<SignalId> fanin;
            const unsigned k = 3 + rng.nextInt(3);
            for (unsigned i = 0; i < k; ++i)
                fanin.push_back(pick());
            out = rng.nextBool() ? n.addNand(fanin)
                                 : n.addNor(fanin);
            break;
          }
          case 4:
            out = n.addAnd(pick(), pick());
            break;
          case 5:
            out = n.addOr(pick(), pick());
            break;
          case 6:
            out = n.addXor(pick(), pick());
            break;
          case 7:
            out = n.addXnor(pick(), pick());
            break;
          case 8:
            out = n.addMux(pick(), pick(), pick());
            break;
          default:
            out = n.addTgXor(pick(), pick());
            break;
        }
        pool.push_back(out);
    }
    n.finalize();
    return n;
}

/** Scalar-vs-batch identity over @p num_vectors random vectors. */
void
checkBatchMatchesScalar(const Netlist &n, Rng &rng,
                        std::size_t num_vectors)
{
    std::vector<std::vector<bool>> inputs(num_vectors);
    for (auto &v : inputs) {
        v.resize(n.numInputs());
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = rng.nextBool();
    }

    std::vector<std::uint8_t> scalar;
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> input_words(n.numInputs());
    for (std::size_t begin = 0; begin < num_vectors; begin += 64) {
        const std::size_t count =
            std::min<std::size_t>(64, num_vectors - begin);
        for (std::size_t i = 0; i < n.numInputs(); ++i) {
            std::uint64_t w = 0;
            for (std::size_t l = 0; l < count; ++l)
                if (inputs[begin + l][i])
                    w |= std::uint64_t(1) << l;
            input_words[i] = w;
        }
        n.evaluateBatch(input_words.data(), words);
        ASSERT_EQ(words.size(), n.wordCount());
        for (std::size_t l = 0; l < count; ++l) {
            n.evaluate(inputs[begin + l], scalar);
            for (std::size_t s = 0; s < n.numSignals(); ++s) {
                const std::uint64_t lane =
                    n.laneWord(words.data(), s);
                ASSERT_EQ((lane >> l) & 1, scalar[s])
                    << "vector " << begin + l << " net " << s;
            }
        }
    }
}

TEST(NetlistBatch, RandomNetlistsMatchScalar)
{
    Rng rng(0xba7c4);
    for (int trial = 0; trial < 20; ++trial) {
        const unsigned num_inputs = 1 + rng.nextInt(12);
        const unsigned num_gates = 1 + rng.nextInt(60);
        Netlist n = randomNetlist(rng, num_inputs, num_gates);
        // The optimizer never needs more words than nets.
        EXPECT_LE(n.wordCount(), n.numSignals());
        // Batch sizes spanning partial, exact and multi-word
        // batches.
        for (std::size_t vectors : {std::size_t(1), std::size_t(7),
                                    std::size_t(64),
                                    std::size_t(65),
                                    std::size_t(128)}) {
            checkBatchMatchesScalar(n, rng, vectors);
        }
    }
}

TEST(NetlistBatch, Figure2MatchesScalar)
{
    Netlist n;
    buildFigure2Circuit(n);
    n.finalize();
    Rng rng(0xf19);
    checkBatchMatchesScalar(n, rng, 100);
}

// ---------------------------------------------------- adder sums

TEST(AdderBatch, SumsMatchScalarEvaluate)
{
    for (unsigned width : {1u, 8u, 13u, 32u, 48u, 64u}) {
        LadnerFischerAdder adder(width);
        const std::uint64_t mask = width >= 64
            ? ~std::uint64_t(0)
            : (std::uint64_t(1) << width) - 1;
        Rng rng(width);
        std::uint64_t a[64];
        std::uint64_t b[64];
        std::uint64_t cin_mask = 0;
        for (int l = 0; l < 64; ++l) {
            a[l] = rng() & mask;
            b[l] = rng() & mask;
            if (rng.nextBool())
                cin_mask |= std::uint64_t(1) << l;
        }
        std::vector<std::uint64_t> words;
        adder.evaluateBatch(a, b, cin_mask, words);
        std::uint64_t sums[64];
        std::uint64_t cout_mask = 0;
        adder.batchSums(words, sums, &cout_mask);
        for (int l = 0; l < 64; ++l) {
            bool cout = false;
            const std::uint64_t expect = adder.evaluate(
                a[l], b[l], (cin_mask >> l) & 1, &cout);
            EXPECT_EQ(sums[l], expect) << "lane " << l;
            EXPECT_EQ((cout_mask >> l) & 1, cout ? 1u : 0u)
                << "lane " << l;
        }
    }
}

TEST(AdderBatch, RippleAndKoggeStoneMatchToo)
{
    RippleCarryAdder rc(24);
    KoggeStoneAdder ks(24);
    for (Adder *adder : {static_cast<Adder *>(&rc),
                         static_cast<Adder *>(&ks)}) {
        Rng rng(0x5eed);
        std::uint64_t a[64];
        std::uint64_t b[64];
        std::uint64_t cin_mask = rng();
        for (int l = 0; l < 64; ++l) {
            a[l] = rng() & 0xffffff;
            b[l] = rng() & 0xffffff;
        }
        std::vector<std::uint64_t> words;
        adder->evaluateBatch(a, b, cin_mask, words);
        std::uint64_t sums[64];
        adder->batchSums(words, sums);
        for (int l = 0; l < 64; ++l) {
            EXPECT_EQ(sums[l],
                      adder->evaluate(a[l], b[l],
                                      (cin_mask >> l) & 1));
        }
    }
}

// -------------------------------------------------- aging identity

/** Exact equality of two summaries (all fields are derived from
 *  integer counts, so batched == scalar must hold bit-for-bit). */
void
expectSummariesIdentical(const AgingSummary &x,
                         const AgingSummary &y)
{
    EXPECT_EQ(x.worstNarrowZeroProb, y.worstNarrowZeroProb);
    EXPECT_EQ(x.worstWideZeroProb, y.worstWideZeroProb);
    EXPECT_EQ(x.narrowFullyStressedFraction,
              y.narrowFullyStressedFraction);
    EXPECT_EQ(x.guardband, y.guardband);
    EXPECT_EQ(x.numDevices, y.numDevices);
    EXPECT_EQ(x.numNarrow, y.numNarrow);
    EXPECT_EQ(x.numWide, y.numWide);
}

TEST(AgingBatch, Figure2SummaryIdentity)
{
    Netlist n;
    buildFigure2Circuit(n);
    n.finalize();

    Rng rng(0xa91);
    const std::size_t num_vectors = 150; // 2 full + 1 partial batch
    std::vector<std::vector<bool>> inputs(num_vectors);
    for (auto &v : inputs)
        v = {rng.nextBool(), rng.nextBool(), rng.nextBool()};

    PmosAgingTracker scalar(n);
    for (const auto &v : inputs)
        scalar.applyInput(v);

    PmosAgingTracker batched(n);
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> input_words(n.numInputs());
    for (std::size_t begin = 0; begin < num_vectors; begin += 64) {
        const std::size_t count =
            std::min<std::size_t>(64, num_vectors - begin);
        for (std::size_t i = 0; i < n.numInputs(); ++i) {
            std::uint64_t w = 0;
            for (std::size_t l = 0; l < count; ++l)
                if (inputs[begin + l][i])
                    w |= std::uint64_t(1) << l;
            input_words[i] = w;
        }
        n.evaluateBatch(input_words.data(), words);
        const std::uint64_t lane_mask = count == 64
            ? ~std::uint64_t(0)
            : (std::uint64_t(1) << count) - 1;
        batched.observeBatch(words.data(), lane_mask);
    }

    ASSERT_EQ(scalar.numDevices(), batched.numDevices());
    for (std::size_t i = 0; i < scalar.numDevices(); ++i)
        EXPECT_EQ(scalar.zeroProb(i), batched.zeroProb(i));
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    expectSummariesIdentical(scalar.summarize(model),
                             batched.summarize(model));
}

/** One adder of each topology at @p width bits. */
std::vector<std::unique_ptr<Adder>>
allTopologies(unsigned width)
{
    std::vector<std::unique_ptr<Adder>> adders;
    adders.push_back(std::make_unique<LadnerFischerAdder>(width));
    adders.push_back(std::make_unique<RippleCarryAdder>(width));
    adders.push_back(std::make_unique<KoggeStoneAdder>(width));
    return adders;
}

TEST(AgingBatch, LadnerFischerOperandIdentity)
{
    // The Figure-5 real-input path: batched zeroProbsForOperands
    // must equal one scalar applyInput per sample, bit for bit --
    // on the Ladner-Fischer adder the paper studies and on the
    // ripple-carry and Kogge-Stone topologies too.
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(2);
    const auto ops = collectAdderOperands(gen, 333);
    ASSERT_FALSE(ops.empty());

    for (const auto &adder : allTopologies(32)) {
        AdderAgingAnalysis analysis(
            *adder, GuardbandModel::paperCalibrated());
        const auto batched = analysis.zeroProbsForOperands(ops);

        PmosAgingTracker scalar(adder->netlist());
        std::vector<bool> in;
        for (const auto &op : ops) {
            adder->fillInputVector(in, op.a, op.b, op.cin);
            scalar.applyInput(in);
        }
        ASSERT_EQ(batched.size(), scalar.numDevices());
        for (std::size_t i = 0; i < batched.size(); ++i) {
            EXPECT_EQ(batched[i], scalar.zeroProb(i))
                << adder->name() << " device " << i;
        }
    }
}

TEST(AgingBatch, SyntheticRotationIdentity)
{
    // zeroProbsForInput / -Pair / -Inputs against scalar
    // round-robin applyInput.
    LadnerFischerAdder adder(16);
    AdderAgingAnalysis analysis(adder,
                                GuardbandModel::paperCalibrated());
    const std::vector<std::vector<unsigned>> rotations = {
        {0}, {7}, {0, 7}, {2, 5}, {0, 7, 3, 4}};
    for (const auto &rotation : rotations) {
        const auto batched = analysis.zeroProbsForInputs(rotation);
        PmosAgingTracker scalar(adder.netlist());
        std::vector<bool> in;
        for (unsigned index : rotation) {
            syntheticVector(adder, index, in);
            scalar.applyInput(in);
        }
        ASSERT_EQ(batched.size(), scalar.numDevices());
        for (std::size_t i = 0; i < batched.size(); ++i)
            EXPECT_EQ(batched[i], scalar.zeroProb(i));
    }
}

TEST(AgingBatch, PairSweepMatchesScalarSweep)
{
    // The single-pass Figure-4 sweep equals 28 scalar two-input
    // sweeps exactly, on every adder topology.
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    for (const auto &adder : allTopologies(32)) {
        AdderAgingAnalysis analysis(*adder, model);
        const auto sweep = analysis.sweepPairs();
        ASSERT_EQ(sweep.size(), 28u);
        std::vector<bool> in;
        for (const auto &entry : sweep) {
            PmosAgingTracker scalar(adder->netlist());
            syntheticVector(*adder, entry.pair.first, in);
            scalar.applyInput(in);
            syntheticVector(*adder, entry.pair.second, in);
            scalar.applyInput(in);
            const AgingSummary s = scalar.summarize(model);
            EXPECT_EQ(entry.narrowFullyStressedFraction,
                      s.narrowFullyStressedFraction)
                << adder->name() << " pair " << pairLabel(entry.pair);
        }
    }
}

TEST(AgingBatch, ObserveBatchWithDt)
{
    // dt > 1 charges every valid lane dt units, like scalar
    // observes with the same dt.
    Netlist n;
    const SignalId a = n.addInput();
    n.addInv(a);
    n.finalize();

    PmosAgingTracker batched(n);
    std::vector<std::uint64_t> words;
    std::uint64_t zero = 0;
    n.evaluateBatch(&zero, words); // input 0 in every lane
    batched.observeBatch(words.data(), 0x7, 5); // 3 lanes, dt 5
    std::uint64_t ones = ~std::uint64_t(0);
    n.evaluateBatch(&ones, words);
    batched.observeBatch(words.data(), 0x1, 5); // 1 lane, dt 5

    PmosAgingTracker scalar(n);
    for (int i = 0; i < 3; ++i)
        scalar.applyInput({false}, 5);
    scalar.applyInput({true}, 5);
    EXPECT_EQ(batched.zeroProb(0), scalar.zeroProb(0));
    EXPECT_EQ(batched.zeroProb(0), 0.75);
}

// ------------------------------------------------ wide (W words)

TEST(NetlistWide, RandomNetlistsMatchSingleWord)
{
    // Word w of an evaluateBatchWide pass must be bit-for-bit what
    // evaluateBatch over that word's input words produces, for
    // every supported W.
    Rng rng(0x31de);
    for (int trial = 0; trial < 10; ++trial) {
        const unsigned num_inputs = 1 + rng.nextInt(12);
        const unsigned num_gates = 1 + rng.nextInt(60);
        Netlist n = randomNetlist(rng, num_inputs, num_gates);

        std::vector<std::uint64_t> in_flat(n.numInputs() * 8);
        for (auto &w : in_flat)
            w = rng();

        std::vector<std::uint64_t> ref;
        std::vector<std::uint64_t> single(n.numInputs());
        for (unsigned net_w : {1u, 2u, 4u, 8u}) {
            std::vector<std::uint64_t> in(n.numInputs() * net_w);
            for (std::size_t i = 0; i < n.numInputs(); ++i)
                for (unsigned w = 0; w < net_w; ++w)
                    in[i * net_w + w] = in_flat[i * 8 + w];
            std::vector<std::uint64_t> wide;
            n.evaluateBatchWide(in.data(), wide, net_w);
            ASSERT_EQ(wide.size(), n.wordCount() * net_w);
            for (unsigned w = 0; w < net_w; ++w) {
                for (std::size_t i = 0; i < n.numInputs(); ++i)
                    single[i] = in_flat[i * 8 + w];
                n.evaluateBatch(single.data(), ref);
                for (std::size_t s = 0; s < n.numSignals(); ++s) {
                    ASSERT_EQ(
                        n.laneWordWide(wide.data(), net_w, w, s),
                        n.laneWord(ref.data(), s))
                        << "W " << net_w << " word " << w
                        << " net " << s;
                }
            }
        }
    }
}

TEST(AdderWide, MatchesEvaluateBatchPerWord)
{
    LadnerFischerAdder adder(32);
    Rng rng(0xadd3);
    std::uint64_t a[512];
    std::uint64_t b[512];
    std::uint64_t cin_masks[8];
    for (unsigned i = 0; i < 512; ++i) {
        a[i] = rng() & 0xffffffff;
        b[i] = rng() & 0xffffffff;
    }
    for (unsigned w = 0; w < 8; ++w)
        cin_masks[w] = rng();

    const Netlist &n = adder.netlist();
    std::vector<std::uint64_t> ref;
    for (unsigned net_w : {1u, 2u, 4u, 8u}) {
        std::vector<std::uint64_t> wide;
        adder.evaluateBatchWide(a, b, cin_masks, net_w, wide);
        ASSERT_EQ(wide.size(), n.wordCount() * net_w);
        for (unsigned w = 0; w < net_w; ++w) {
            adder.evaluateBatch(a + w * 64, b + w * 64,
                                cin_masks[w], ref);
            for (std::size_t s = 0; s < n.numSignals(); ++s) {
                ASSERT_EQ(n.laneWordWide(wide.data(), net_w, w, s),
                          n.laneWord(ref.data(), s))
                    << "W " << net_w << " word " << w << " net "
                    << s;
            }
        }
    }
}

TEST(AgingWide, ObserveBatchWideIdentity)
{
    // observeBatchWide over W interleaved words == W observeBatch
    // calls, including partial (masked) words.
    Rng rng(0x0b5e);
    Netlist n = randomNetlist(rng, 8, 40);
    std::uint64_t in[8 * 8];
    for (auto &w : in)
        w = rng();
    const std::uint64_t lane_masks[8] = {
        ~std::uint64_t(0), 0x3ff, 0, 0xffff0000ffff0000ull,
        0x1, ~std::uint64_t(0), 0xf0f0, 0};

    for (unsigned net_w : {2u, 4u, 8u}) {
        std::vector<std::uint64_t> interleaved(8 * net_w);
        for (std::size_t i = 0; i < 8; ++i)
            for (unsigned w = 0; w < net_w; ++w)
                interleaved[i * net_w + w] = in[i * 8 + w];
        std::vector<std::uint64_t> wide;
        n.evaluateBatchWide(interleaved.data(), wide, net_w);
        PmosAgingTracker wide_tracker(n);
        wide_tracker.observeBatchWide(wide.data(), net_w,
                                      lane_masks, 3);

        PmosAgingTracker ref_tracker(n);
        std::vector<std::uint64_t> single(8);
        std::vector<std::uint64_t> words;
        for (unsigned w = 0; w < net_w; ++w) {
            for (std::size_t i = 0; i < 8; ++i)
                single[i] = in[i * 8 + w];
            n.evaluateBatch(single.data(), words);
            ref_tracker.observeBatch(words.data(), lane_masks[w],
                                     3);
        }
        for (std::size_t d = 0; d < ref_tracker.numDevices(); ++d) {
            ASSERT_EQ(wide_tracker.zeroProb(d),
                      ref_tracker.zeroProb(d))
                << "W " << net_w << " device " << d;
        }
    }
}

TEST(NetlistWide, PreferredBatchWordsIsSupported)
{
    EXPECT_EQ(Netlist::preferredBatchWords(), 4u);
}

// ------------------------------------------------- PMOS slot map

/** Canonical-ref equality: constants carry no word. */
bool
sameRef(NetRef x, NetRef y)
{
    const bool has_word =
        x.kind == NetRefKind::Word || x.kind == NetRefKind::InvWord;
    return x.kind == y.kind && (!has_word || x.word == y.word);
}

/** Structural invariants of @p n's slot map. */
void
checkSlotMap(const Netlist &n, const char *what)
{
    SCOPED_TRACE(what);
    const PmosSlotMap &m = n.pmosSlots();
    const auto &devices = n.pmosDevices();
    ASSERT_EQ(m.deviceSlot.size(), devices.size());
    ASSERT_EQ(m.slotWord.size(), m.numSlots());
    ASSERT_LE(m.wordEnd, m.invEnd);
    ASSERT_LE(m.invEnd, m.const0End);
    ASSERT_LE(m.const0End, m.numSlots());
    // Each device's representative net reads out exactly like the
    // device's own gate net, and every slot serves some device.
    std::vector<bool> used(m.numSlots(), false);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const std::uint32_t slot = m.deviceSlot[i];
        ASSERT_LT(slot, m.numSlots()) << "device " << i;
        used[slot] = true;
        EXPECT_TRUE(sameRef(n.ref(m.slotNet[slot]),
                            n.ref(devices[i].gateSignal)))
            << "device " << i;
    }
    for (std::size_t s = 0; s < used.size(); ++s)
        EXPECT_TRUE(used[s]) << "slot " << s;
    // Word | InvWord | Const0 | Const1, strictly ascending words
    // inside the word partitions, at most one slot per constant.
    EXPECT_LE(m.const0End - m.invEnd, 1u);
    EXPECT_LE(m.numSlots() - m.const0End, 1u);
    for (std::size_t s = 0; s < m.numSlots(); ++s) {
        const NetRef r = n.ref(m.slotNet[s]);
        const NetRefKind kind = s < m.wordEnd ? NetRefKind::Word
            : s < m.invEnd                    ? NetRefKind::InvWord
            : s < m.const0End                 ? NetRefKind::Const0
                                              : NetRefKind::Const1;
        EXPECT_EQ(r.kind, kind) << "slot " << s;
        if (s >= m.invEnd) {
            EXPECT_EQ(m.slotWord[s], 0u) << "slot " << s;
            continue;
        }
        EXPECT_EQ(m.slotWord[s], r.word) << "slot " << s;
        if (s != 0 && s != m.wordEnd) {
            EXPECT_LT(m.slotWord[s - 1], m.slotWord[s])
                << "slot " << s;
        }
    }
}

TEST(PmosSlotMap, InvariantsHoldOnEveryNetlistFamily)
{
    Netlist fig2;
    buildFigure2Circuit(fig2);
    fig2.finalize();
    checkSlotMap(fig2, "figure-2");
    for (const auto &adder : allTopologies(32))
        checkSlotMap(adder->netlist(), adder->name());
    Rng rng(0x5107);
    for (int trial = 0; trial < 20; ++trial) {
        const unsigned num_inputs = 1 + rng.nextInt(12);
        const unsigned num_gates = 1 + rng.nextInt(60);
        checkSlotMap(randomNetlist(rng, num_inputs, num_gates),
                     "random");
    }
}

TEST(PmosSlotMap, CopiedNetlistYieldsEqualMap)
{
    // A copy carries its own equal layout (trackers on the copy
    // never read the original's), and the layout is a pure function
    // of the netlist: rebuilding the same netlist reproduces it.
    const LadnerFischerAdder adder(32);
    const Netlist copy = adder.netlist();
    EXPECT_NE(&copy.pmosSlots(), &adder.netlist().pmosSlots());
    EXPECT_EQ(copy.pmosSlots(), adder.netlist().pmosSlots());

    Rng rng(0xc0b1);
    for (int trial = 0; trial < 10; ++trial) {
        Rng replay = rng;
        const Netlist original = randomNetlist(rng, 6, 50);
        const Netlist rebuilt = randomNetlist(replay, 6, 50);
        const Netlist copied = original;
        EXPECT_EQ(rebuilt.pmosSlots(), original.pmosSlots());
        EXPECT_EQ(copied.pmosSlots(), original.pmosSlots());
    }
}

TEST(PmosSlotMap, ConcurrentTrackersAgree)
{
    // Trackers built and fed concurrently on one shared netlist
    // (the engine's pattern: one const analysis, many workers) must
    // each produce the serial summary exactly.
    const LadnerFischerAdder adder(32);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    constexpr unsigned kNetW = 4;
    Rng rng(0x7a5c);
    std::uint64_t a[64 * kNetW];
    std::uint64_t b[64 * kNetW];
    std::uint64_t cin_masks[kNetW];
    for (unsigned i = 0; i < 64 * kNetW; ++i) {
        a[i] = rng() & 0xffffffff;
        b[i] = rng() & 0xffffffff;
    }
    for (auto &m : cin_masks)
        m = rng();
    const std::uint64_t lane_masks[kNetW] = {
        ~std::uint64_t(0), ~std::uint64_t(0), 0xffff, 0};

    const auto run = [&] {
        PmosAgingTracker tracker(adder.netlist());
        std::vector<std::uint64_t> words;
        adder.evaluateBatchWide(a, b, cin_masks, kNetW, words);
        tracker.observeBatchWide(words.data(), kNetW, lane_masks);
        return tracker.summarize(model);
    };
    const AgingSummary serial = run();
    std::vector<AgingSummary> parallel(32);
    ThreadPool pool(4);
    pool.parallelFor(parallel.size(),
                     [&](std::size_t i) { parallel[i] = run(); });
    for (const AgingSummary &s : parallel)
        expectSummariesIdentical(s, serial);
}

TEST(AgingBatch, PaddedLanesIgnored)
{
    // Garbage in lanes outside the mask must not leak into the
    // statistics (constants drive every lane).
    Netlist n;
    const SignalId a = n.addInput();
    const SignalId c1 = n.addConst(true);
    n.addNand({a, c1});
    n.addInv(a);
    n.finalize();

    std::vector<std::uint64_t> words;
    const std::uint64_t in = 0x1; // lane 0 = 1, other lanes 0
    n.evaluateBatch(&in, words);
    PmosAgingTracker tracker(n);
    tracker.observeBatch(words.data(), 0x1);
    for (std::size_t i = 0; i < tracker.numDevices(); ++i) {
        // Every gate input is 1 in the one valid lane.
        EXPECT_EQ(tracker.zeroProb(i), 0.0) << "device " << i;
    }
}

} // namespace
} // namespace penelope
