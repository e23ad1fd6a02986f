/**
 * @file
 * Property tests pinning the word-parallel duty accounting to a
 * scalar reference.
 *
 * ScalarBitBiasTracker is the per-bit implementation (one branchy
 * DutyCycleCounter per bit), kept verbatim as the executable
 * specification.  BitBiasTracker -- whose MaskedTimeAccumulator has
 * one strategy, a direct add per set bit -- must match it bit for
 * bit -- same integers, same doubles -- across widths 1..128,
 * arbitrary dt (from 0 to beyond 2^40), interleaved reads, both
 * observe overloads, the batched observe, and any merge order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/duty.hh"
#include "common/rng.hh"
#include "scheduler/scheduler.hh"
#include "scheduler/techniques.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

/** The scalar reference: one DutyCycleCounter per bit. */
class ScalarBitBiasTracker
{
  public:
    explicit ScalarBitBiasTracker(unsigned width) : bits_(width) {}

    unsigned width() const
    {
        return static_cast<unsigned>(bits_.size());
    }

    void
    observe(const BitWord &value, std::uint64_t dt = 1)
    {
        for (unsigned i = 0; i < width(); ++i)
            bits_[i].observe(value.bit(i), dt);
    }

    void
    observe(Word value, std::uint64_t dt = 1)
    {
        for (unsigned i = 0; i < width(); ++i) {
            const bool level = i < 64 ? ((value >> i) & 1) : false;
            bits_[i].observe(level, dt);
        }
    }

    double
    zeroProbability(unsigned bit) const
    {
        return bits_.at(bit).zeroProbability();
    }

    const DutyCycleCounter &counter(unsigned bit) const
    {
        return bits_.at(bit);
    }

    void
    merge(const ScalarBitBiasTracker &other)
    {
        for (unsigned i = 0; i < width(); ++i)
            bits_[i].merge(other.bits_[i]);
    }

  private:
    std::vector<DutyCycleCounter> bits_;
};

/** Exact equality of every observable, integer and double. */
void
expectEqual(const BitBiasTracker &sliced,
            const ScalarBitBiasTracker &scalar)
{
    ASSERT_EQ(sliced.width(), scalar.width());
    for (unsigned b = 0; b < sliced.width(); ++b) {
        EXPECT_EQ(sliced.zeroTime(b), scalar.counter(b).zeroTime())
            << "bit " << b;
        EXPECT_EQ(sliced.counter(b).totalTime(),
                  scalar.counter(b).totalTime())
            << "bit " << b;
        // Bit-identical doubles, not just near.
        EXPECT_EQ(sliced.zeroProbability(b),
                  scalar.zeroProbability(b))
            << "bit " << b;
    }
}

BitWord
randomWord(Rng &rng, unsigned width)
{
    // Mix of densities: all-zero, sparse, dense, full random.
    const int kind = static_cast<int>(rng.nextInt(4));
    std::uint64_t lo = rng();
    std::uint64_t hi = rng();
    if (kind == 0) {
        lo = hi = 0;
    } else if (kind == 1) {
        lo &= rng();
        lo &= rng();
        hi &= rng();
        hi &= rng();
    } else if (kind == 2) {
        lo |= rng();
        hi |= rng();
    }
    return BitWord(width, lo, hi);
}

std::uint64_t
randomDt(Rng &rng)
{
    switch (rng.nextInt(8)) {
      case 0:
      case 1:
      case 2:
        return 1; // the hot case
      case 3:
        return rng.nextInt(8);         // includes dt = 0
      case 4:
        return 1 + rng.nextInt(1000);  // typical residences
      case 5:
        return 65534 + rng.nextInt(4); // around 2^16
      case 6:
        return 65536 + rng.nextInt(1 << 20); // long residences
      default:
        return 1 + rng.nextInt(100);
    }
}

TEST(SlicedDuty, MatchesScalarAcrossWidthsAndDts)
{
    for (unsigned width : {1u, 2u, 7u, 31u, 32u, 33u, 63u, 64u,
                           65u, 80u, 127u, 128u}) {
        Rng rng(0xd00d + width);
        BitBiasTracker sliced(width);
        ScalarBitBiasTracker scalar(width);
        for (int step = 0; step < 2000; ++step) {
            const std::uint64_t dt = randomDt(rng);
            if (rng.nextBool(0.5)) {
                const BitWord v = randomWord(rng, width);
                sliced.observe(v, dt);
                scalar.observe(v, dt);
            } else {
                const Word v = rng();
                sliced.observe(v, dt);
                scalar.observe(v, dt);
            }
            // Interleaved reads must not disturb the totals.
            if (rng.nextBool(0.05)) {
                const unsigned bit =
                    static_cast<unsigned>(rng.nextInt(width));
                EXPECT_EQ(sliced.zeroProbability(bit),
                          scalar.zeroProbability(bit));
            }
        }
        expectEqual(sliced, scalar);
    }
}

TEST(SlicedDuty, OverflowFlushBoundaryIsExact)
{
    // Residences at, across and far beyond 2^16, mixed with dt = 1:
    // each add is exact whatever its magnitude.
    for (std::uint64_t first : {65534ull, 65535ull, 65536ull}) {
        BitBiasTracker sliced(4);
        ScalarBitBiasTracker scalar(4);
        const BitWord v(4, 0b0101);
        const std::uint64_t dts[] = {first,    1,         1,
                                     65535,    1ull << 40, 3};
        for (const std::uint64_t dt : dts) {
            sliced.observe(v, dt);
            scalar.observe(v, dt);
        }
        expectEqual(sliced, scalar);
    }
}

TEST(SlicedDuty, DtZeroIsANoop)
{
    BitBiasTracker sliced(16);
    ScalarBitBiasTracker scalar(16);
    sliced.observe(Word(0xabcd), 0);
    scalar.observe(Word(0xabcd), 0);
    expectEqual(sliced, scalar);
    EXPECT_EQ(sliced.counter(3).totalTime(), 0u);
    EXPECT_EQ(sliced.zeroProbability(3), 0.5);
}

TEST(SlicedDuty, WordObserveTreatsHighBitsAsZero)
{
    BitBiasTracker sliced(80);
    ScalarBitBiasTracker scalar(80);
    sliced.observe(~Word(0), 7);
    scalar.observe(~Word(0), 7);
    expectEqual(sliced, scalar);
    EXPECT_EQ(sliced.zeroProbability(63), 0.0);
    EXPECT_EQ(sliced.zeroProbability(64), 1.0);
}

TEST(SlicedDuty, MergeMatchesScalarAndIsOrderIndependent)
{
    for (unsigned width : {1u, 32u, 80u, 128u}) {
        Rng rng(0xfeed + width);
        BitBiasTracker a(width);
        BitBiasTracker b(width);
        ScalarBitBiasTracker sa(width);
        ScalarBitBiasTracker sb(width);
        for (int step = 0; step < 500; ++step) {
            const BitWord v = randomWord(rng, width);
            const std::uint64_t dt = randomDt(rng);
            if (rng.nextBool(0.5)) {
                a.observe(v, dt);
                sa.observe(v, dt);
            } else {
                b.observe(v, dt);
                sb.observe(v, dt);
            }
        }
        // a+b and b+a must agree with the scalar merge exactly.
        BitBiasTracker ab = a;
        ab.merge(b);
        BitBiasTracker ba = b;
        ba.merge(a);
        ScalarBitBiasTracker sab = sa;
        sab.merge(sb);
        expectEqual(ab, sab);
        expectEqual(ba, sab);
    }
}

TEST(SlicedDuty, ResetClearsEverything)
{
    BitBiasTracker t(32);
    t.observe(Word(0x1234), 100);
    t.observe(Word(0xffff), 65535);
    t.reset();
    for (unsigned b = 0; b < 32; ++b) {
        EXPECT_EQ(t.zeroTime(b), 0u);
        EXPECT_EQ(t.counter(b).totalTime(), 0u);
        EXPECT_EQ(t.zeroProbability(b), 0.5);
    }
    // And it keeps accumulating correctly afterwards.
    ScalarBitBiasTracker scalar(32);
    t.observe(Word(0xf0f0), 9);
    scalar.observe(Word(0xf0f0), 9);
    expectEqual(t, scalar);
}

TEST(SlicedDuty, FromTimesRoundTrips)
{
    Rng rng(0xcafe);
    BitBiasTracker t(24);
    for (int i = 0; i < 100; ++i)
        t.observe(randomWord(rng, 24), randomDt(rng));
    std::vector<std::uint64_t> zeros(24);
    for (unsigned b = 0; b < 24; ++b)
        zeros[b] = t.zeroTime(b);
    const BitBiasTracker copy = BitBiasTracker::fromTimes(
        24, zeros.data(), t.totalTime());
    for (unsigned b = 0; b < 24; ++b) {
        EXPECT_EQ(copy.zeroTime(b), t.zeroTime(b));
        EXPECT_EQ(copy.zeroProbability(b), t.zeroProbability(b));
    }
}

/** Pack @p values (lane v = value for vector v) into per-bit lane
 *  words: bit v of word b = bit b of value v -- the observeBatch
 *  layout. */
std::vector<std::uint64_t>
toBitWords(const std::vector<BitWord> &values, unsigned width)
{
    std::vector<std::uint64_t> words(width, 0);
    for (unsigned b = 0; b < width; ++b) {
        for (std::size_t v = 0; v < values.size(); ++v) {
            if (values[v].bit(b))
                words[b] |= std::uint64_t(1) << v;
        }
    }
    return words;
}

TEST(SlicedDuty, ObserveBatchMatchesScalarObserves)
{
    for (unsigned width : {1u, 7u, 32u, 64u, 65u, 80u, 128u}) {
        Rng rng(0xba7c4 + width);
        BitBiasTracker batched(width);
        BitBiasTracker scalar(width);
        for (int round = 0; round < 40; ++round) {
            // Partial batches too: 1..64 selected lanes, possibly
            // non-contiguous, with garbage in the padding lanes
            // (which must be ignored entirely).
            const unsigned lanes =
                1 + static_cast<unsigned>(rng.nextInt(64));
            std::uint64_t lane_mask = lanes == 64
                ? ~std::uint64_t(0)
                : (std::uint64_t(1) << lanes) - 1;
            if (rng.nextBool(0.5))
                lane_mask &= rng() | 1; // keep at least lane 0
            const std::uint64_t dt = randomDt(rng);

            std::vector<BitWord> values;
            for (unsigned v = 0; v < 64; ++v)
                values.push_back(randomWord(rng, width));
            auto words = toBitWords(values, width);

            batched.observeBatch(words.data(), lane_mask, dt);
            for (unsigned v = 0; v < 64; ++v) {
                if ((lane_mask >> v) & 1)
                    scalar.observe(values[v], dt);
            }
        }
        ASSERT_EQ(batched.totalTime(), scalar.totalTime());
        for (unsigned b = 0; b < width; ++b) {
            ASSERT_EQ(batched.zeroTime(b), scalar.zeroTime(b))
                << "width " << width << " bit " << b;
            ASSERT_EQ(batched.zeroProbability(b),
                      scalar.zeroProbability(b));
        }
        ASSERT_EQ(batched.maxWorstCaseStress(),
                  scalar.maxWorstCaseStress());
    }
}

TEST(SlicedDuty, ObserveBatchEmptyMaskIsANoOp)
{
    BitBiasTracker t(32);
    const std::vector<std::uint64_t> words(32, ~std::uint64_t(0));
    t.observeBatch(words.data(), 0, 5);
    EXPECT_EQ(t.totalTime(), 0u);
    t.observeBatch(words.data(), ~std::uint64_t(0), 0); // dt = 0
    EXPECT_EQ(t.totalTime(), 0u);
}

TEST(SlicedDuty, ObserveBatchMergesWithScalarHistory)
{
    // Batched and scalar observations interleave and merge freely:
    // the representation is shared, so mixing paths stays exact.
    Rng rng(0x5eed);
    BitBiasTracker mixed(48);
    BitBiasTracker reference(48);
    for (int round = 0; round < 20; ++round) {
        std::vector<BitWord> values;
        for (unsigned v = 0; v < 64; ++v)
            values.push_back(randomWord(rng, 48));
        const auto words = toBitWords(values, 48);
        mixed.observeBatch(words.data(), ~std::uint64_t(0), 3);
        for (unsigned v = 0; v < 64; ++v)
            reference.observe(values[v], 3);

        const BitWord single = randomWord(rng, 48);
        mixed.observe(single, 7);
        reference.observe(single, 7);
    }
    for (unsigned b = 0; b < 48; ++b)
        ASSERT_EQ(mixed.zeroTime(b), reference.zeroTime(b));
    EXPECT_EQ(mixed.totalTime(), reference.totalTime());
}

// ------------------------------------------------- repair kernel

/** Field @p f of a packed slot image (test-local layout walk). */
std::uint64_t
imageField(const Scheduler::LayoutWords &image, unsigned f)
{
    const FieldSpec &spec = fieldLayout().spec(f);
    std::uint64_t v = 0;
    for (unsigned b = 0; b < spec.width; ++b) {
        const unsigned g = spec.offset + b;
        v |= ((image[g / 64] >> (g % 64)) & 1) << b;
    }
    return v;
}

void
setImageField(Scheduler::LayoutWords &image, unsigned f,
              std::uint64_t v)
{
    const FieldSpec &spec = fieldLayout().spec(f);
    for (unsigned b = 0; b < spec.width; ++b) {
        const unsigned g = spec.offset + b;
        const std::uint64_t bit = std::uint64_t(1) << (g % 64);
        image[g / 64] = ((v >> b) & 1) ? image[g / 64] | bit
                                       : image[g / 64] & ~bit;
    }
}

/** Bit f = field f, for every field of the layout. */
constexpr std::uint32_t kAllFields = (std::uint32_t(1) << numFields) - 1;

/** Every bit of the image except those of the fields in
 *  @p fields (bit f = field f). */
Scheduler::LayoutWords
liveOutside(std::uint32_t fields)
{
    Scheduler::LayoutWords live{~std::uint64_t(0), ~std::uint64_t(0),
                                ~std::uint64_t(0)};
    for (unsigned f = 0; f < fieldLayout().count(); ++f) {
        if ((fields >> f) & 1)
            setImageField(live, f, 0);
    }
    return live;
}

/** Repair field @p f alone, allocate-shaped: repairImage with only
 *  @p f selected and every other bit live. */
BitWord
repairField(Scheduler &sched, unsigned f, const BitWord &current,
            bool write_isv)
{
    Scheduler::LayoutWords image{};
    setImageField(image, f, current.lo());
    const std::uint32_t bit = std::uint32_t(1) << f;
    const Scheduler::LayoutWords out = sched.repairImage(
        image, write_isv ? bit : 0u, bit, liveOutside(bit));
    return BitWord(fieldLayout().spec(f).width, imageField(out, f));
}

/** Scalar reference of the per-bit repair switch, applied to one
 *  field through repairImage(); pins the mask-based recipe. */
TEST(RepairKernel, MaskRecipeMatchesPerBitSwitch)
{
    const FieldLayout &layout = fieldLayout();
    Scheduler sched{SchedulerConfig{}};

    // Hand-craft decisions exercising every technique on the Imm
    // field (16 bits, offset known from the layout).
    std::vector<BitDecision> decisions(layout.totalBits());
    const FieldSpec &imm = layout.spec(FieldId::Imm);
    const Technique kinds[8] = {
        Technique::All1,  Technique::All0, Technique::None,
        Technique::Isv,   Technique::All1K, Technique::All0K,
        Technique::Unprotectable, Technique::All1,
    };
    for (unsigned b = 0; b < imm.width; ++b) {
        BitDecision d;
        d.technique = kinds[b % 8];
        d.k = (b % 3 == 0) ? 1.0 : 0.0; // duty generator extremes
        decisions[imm.offset + b] = d;
    }
    sched.configureProtection(decisions);

    const unsigned field = static_cast<unsigned>(FieldId::Imm);
    const BitWord current(imm.width, 0xa5a5);

    // Fresh scheduler: RINV is the inversion of zero = all ones.
    for (const bool write_isv : {true, false}) {
        // Scalar reference: replicate the per-bit switch with an
        // independent generator bank in the same state.
        std::vector<DutyGenerator> gens(layout.totalBits());
        for (unsigned g = 0; g < decisions.size(); ++g)
            gens[g].setK(decisions[g].k);

        BitWord expected(imm.width);
        for (unsigned b = 0; b < imm.width; ++b) {
            const BitDecision &d = decisions[imm.offset + b];
            bool v = current.bit(b);
            switch (d.technique) {
              case Technique::All1:
                v = true;
                break;
              case Technique::All0:
                v = false;
                break;
              case Technique::All1K:
                v = gens[imm.offset + b].next();
                break;
              case Technique::All0K:
                v = !gens[imm.offset + b].next();
                break;
              case Technique::Isv:
                v = write_isv; // RINV is all ones here
                break;
              case Technique::None:
              case Technique::Unprotectable:
                break;
            }
            expected.setBit(b, v);
        }

        Scheduler fresh{SchedulerConfig{}};
        fresh.configureProtection(decisions);
        const BitWord got =
            repairField(fresh, field, current, write_isv);
        EXPECT_EQ(got, expected) << "write_isv = " << write_isv;
    }
}

/**
 * The one-pass repair equals one-field repairs applied field by
 * field, in both shapes: a release (every field, valid bit kept)
 * and an allocation (a random subset of the capture fields, the
 * other fields live).  Random decisions over every technique, both
 * ISV polarities per field, K% bits, and the fields straddling
 * layout words (Src1Data across words 0/1, Imm across 1/2).  Two
 * schedulers fed the same allocations carry the same RINV samples
 * and duty-generator states; one repairs whole images, the other
 * field by field.
 */
TEST(RepairKernel, WordMaskReleaseMatchesPerField)
{
    const FieldLayout &layout = fieldLayout();
    const unsigned valid = static_cast<unsigned>(FieldId::Valid);
    const unsigned capture[3] = {
        static_cast<unsigned>(FieldId::Src1Data),
        static_cast<unsigned>(FieldId::Src2Data),
        static_cast<unsigned>(FieldId::Imm),
    };
    const Technique kinds[7] = {
        Technique::Isv,  Technique::All1K, Technique::None,
        Technique::All0K, Technique::All1, Technique::All0,
        Technique::Unprotectable,
    };
    WorkloadSet workload;
    Rng rng(0x5e1ea5e);
    for (int round = 0; round < 24; ++round) {
        // Round 0 cycles every technique through the straddling
        // fields so both words of each hold ISV and K% bits; the
        // other rounds draw every bit's technique and duty factor.
        std::vector<BitDecision> decisions(layout.totalBits());
        for (unsigned g = 0; g < decisions.size(); ++g) {
            decisions[g].technique = kinds[rng.nextInt(7)];
            decisions[g].k = rng.nextDouble();
        }
        if (round == 0) {
            for (const FieldId id : {FieldId::Src1Data, FieldId::Imm}) {
                const FieldSpec &spec = layout.spec(id);
                for (unsigned b = 0; b < spec.width; ++b)
                    decisions[spec.offset + b].technique = kinds[b % 7];
            }
        }

        SchedulerConfig cfg;
        cfg.isvSampleInterval = 1;
        Scheduler word_mask(cfg);
        Scheduler per_field(cfg);
        for (Scheduler *s : {&word_mask, &per_field}) {
            s->configureProtection(decisions);
            s->enableProtection(true);
        }

        TraceGenerator gen = workload.generator(round % 8);
        Cycle now = 0;
        for (int step = 0; step < 40; ++step) {
            // Refresh RINV from a real uop (with random capture
            // fields live), then repair random images both ways.
            const Uop uop = gen.next();
            RenameTags tags;
            tags.dstTag = static_cast<std::uint8_t>(rng.nextInt(128));
            tags.src1Tag = static_cast<std::uint8_t>(rng.nextInt(128));
            tags.src2Tag = static_cast<std::uint8_t>(rng.nextInt(128));
            tags.ready1 = rng.nextBool();
            tags.ready2 = rng.nextBool();
            now += 1 + rng.nextInt(4);
            const int a = word_mask.allocate(uop, tags, now);
            const int b = per_field.allocate(uop, tags, now);
            ASSERT_EQ(a, b);
            now += 1 + rng.nextInt(4);
            word_mask.release(static_cast<unsigned>(a), now);
            per_field.release(static_cast<unsigned>(b), now);

            Scheduler::LayoutWords current{rng(), rng(), rng() & 0xffff};
            // Polarity: all inverted, all plain, then random per field.
            const std::uint32_t write_isv = step == 0 ? kAllFields
                : step == 1 ? 0u
                : static_cast<std::uint32_t>(rng()) & kAllFields;
            // Release-shaped, then allocate-shaped: a random subset
            // of the capture fields, every other field live.
            std::uint32_t unused = 0;
            for (const unsigned f : capture) {
                if (rng.nextBool())
                    unused |= std::uint32_t(1) << f;
            }
            for (const std::uint32_t fields : {kAllFields, unused}) {
                const Scheduler::LayoutWords live = fields == kAllFields
                    ? Scheduler::LayoutWords{} : liveOutside(fields);
                const Scheduler::LayoutWords got = word_mask.repairImage(
                    current, write_isv, fields, live);

                Scheduler::LayoutWords want = current;
                for (unsigned f = 0; f < layout.count(); ++f) {
                    if (f == valid || !((fields >> f) & 1))
                        continue;
                    const BitWord v = repairField(
                        per_field, f,
                        BitWord(layout.spec(f).width,
                                imageField(current, f)),
                        (write_isv >> f) & 1);
                    setImageField(want, f, v.lo());
                }
                for (unsigned w = 0; w < Scheduler::kLayoutWords; ++w) {
                    ASSERT_EQ(got[w], want[w])
                        << "round " << round << " step " << step
                        << " fields " << fields << " word " << w;
                }
            }
        }
    }
}

/** Repeated repairs advance the K-duty generators exactly as the
 *  per-bit loop would (ascending bit order, one next() per K bit
 *  per repair). */
TEST(RepairKernel, DutyGeneratorSequencingIsPreserved)
{
    const FieldLayout &layout = fieldLayout();
    const FieldSpec &imm = layout.spec(FieldId::Imm);
    std::vector<BitDecision> decisions(layout.totalBits());
    for (unsigned b = 0; b < imm.width; ++b) {
        BitDecision d;
        d.technique =
            (b % 2) ? Technique::All1K : Technique::All0K;
        d.k = 0.37;
        decisions[imm.offset + b] = d;
    }

    Scheduler sched{SchedulerConfig{}};
    sched.configureProtection(decisions);
    std::vector<DutyGenerator> gens(imm.width, DutyGenerator(0.37));

    const BitWord current(imm.width, 0);
    for (int round = 0; round < 50; ++round) {
        BitWord expected(imm.width);
        for (unsigned b = 0; b < imm.width; ++b) {
            const bool one = (b % 2) ? gens[b].next()
                                     : !gens[b].next();
            expected.setBit(b, one);
        }
        const BitWord got = repairField(
            sched, static_cast<unsigned>(FieldId::Imm), current, false);
        EXPECT_EQ(got, expected) << "round " << round;
    }
}

/**
 * RINV sampling against the field spec: with ISV on every field and
 * a sample every allocation, RINV holds, field by field, the
 * inversion of the last value fieldUsedByUop / fieldValue put
 * through the allocate port -- a capture field the uop leaves dead
 * keeps its older sample.  Every repair with all-inverted polarity
 * writes RINV itself, so repairImage reads it.  Midway the
 * decisions change to ISV on the even bits only: a sample still
 * refreshes whole fields, so after ISV returns on every bit the odd
 * bits hold the samples taken in between.
 */
TEST(RepairKernel, RinvSamplesLiveFieldsAtAllocation)
{
    const FieldLayout &layout = fieldLayout();
    const unsigned valid = static_cast<unsigned>(FieldId::Valid);
    std::vector<BitDecision> all_isv(layout.totalBits());
    std::vector<BitDecision> even_isv(layout.totalBits());
    for (unsigned g = 0; g < layout.totalBits(); ++g) {
        all_isv[g].technique = Technique::Isv;
        even_isv[g].technique = g % 2 ? Technique::None : Technique::Isv;
    }

    SchedulerConfig cfg;
    cfg.isvSampleInterval = 1;
    Scheduler sched(cfg);
    sched.configureProtection(all_isv);
    sched.enableProtection(true);

    // RINV starts as the inversion of zero.
    Scheduler::LayoutWords want{~std::uint64_t(0), ~std::uint64_t(0),
                                ~std::uint64_t(0)};
    const auto expectRinv = [&](int step) {
        const Scheduler::LayoutWords got = sched.repairImage(
            Scheduler::LayoutWords{}, kAllFields, kAllFields,
            Scheduler::LayoutWords{});
        for (unsigned f = 0; f < layout.count(); ++f) {
            if (f == valid)
                continue;
            ASSERT_EQ(imageField(got, f), imageField(want, f))
                << "step " << step << " field " << layout.spec(f).name;
        }
    };

    // A sample refreshes the fields holding any ISV bit (never the
    // valid bit, which is never repaired).
    const auto isvFields = [&](const std::vector<BitDecision> &d) {
        std::uint32_t fields = 0;
        for (unsigned f = 0; f < layout.count(); ++f) {
            const FieldSpec &spec = layout.spec(f);
            for (unsigned b = 0; b < spec.width; ++b) {
                if (f != valid &&
                    d[spec.offset + b].technique == Technique::Isv)
                    fields |= std::uint32_t(1) << f;
            }
        }
        return fields;
    };

    WorkloadSet workload;
    TraceGenerator gen = workload.generator(3);
    Rng rng(0x41b5);
    Cycle now = 0;
    std::uint32_t sampled = isvFields(all_isv);
    for (int step = 0; step < 96; ++step) {
        if (step == 32 || step == 64) {
            const std::vector<BitDecision> &d =
                step == 32 ? even_isv : all_isv;
            sched.configureProtection(d);
            sampled = isvFields(d);
        }

        // Each capture field live and dead across the steps: step
        // bits 0..2 pick which source operands are read and whether
        // the uop carries an immediate; bits 3..4 the ready flags.
        Uop uop = gen.next();
        uop.srcReg1 = step & 1 ? 3 : 0xff;
        uop.srcReg2 = step & 2 ? 5 : 0xff;
        uop.hasImm = step & 4;
        uop.srcVal1 = rng();
        uop.srcVal2 = rng();
        uop.imm = static_cast<std::uint16_t>(rng());
        RenameTags tags;
        tags.dstTag = static_cast<std::uint8_t>(rng.nextInt(128));
        tags.src1Tag = static_cast<std::uint8_t>(rng.nextInt(128));
        tags.src2Tag = static_cast<std::uint8_t>(rng.nextInt(128));
        tags.ready1 = step & 8;
        tags.ready2 = step & 16;

        now += 1 + rng.nextInt(4);
        const int e = sched.allocate(uop, tags, now);
        ASSERT_GE(e, 0);
        for (unsigned f = 0; f < layout.count(); ++f) {
            const FieldSpec &spec = layout.spec(f);
            if (((sampled >> f) & 1) && fieldUsedByUop(spec.id, uop, tags))
                setImageField(want, f, ~fieldValue(spec.id, uop, tags).lo());
        }
        now += 1 + rng.nextInt(4);
        sched.release(static_cast<unsigned>(e), now);
        if (step < 32 || step >= 64)
            expectRinv(step);
    }
}

} // namespace
} // namespace penelope
