/**
 * @file
 * The scheduler's batched duty accounting against a scalar per-bit
 * reference model.
 *
 * The model keeps every slot's 144 layout bits and in-use flags as
 * plain values and charges each bit's zero-time on every image
 * change -- the per-event definition the bit-sliced drain must
 * reproduce exactly.  It fills a slot field by field from the spec
 * (tests/scheduler_reference.hh) and repairs bit by bit, so it also
 * holds the scheduler's packed allocate path and masked repairs to
 * that spec.  A Scheduler is driven by hand (allocate and release at
 * chosen cycles) next to the model, with protection off and on
 * (ALL1/ALL0/K% repairs; ISV is pinned by the replay anchors in
 * test_replay_batch.cc and RINV sampling by test_duty_sliced.cc),
 * and every per-bit totalBias/busyBias zero-time and per-field
 * in-use time must match.  Residences of 1, 63, 64, 65 and 2^32+1
 * cycles, partial, exactly-full and multi-batch record counts,
 * mid-run snapshots and the mod-2^64 wrap of the per-bit sums are
 * covered.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "scheduler/fields.hh"
#include "scheduler/scheduler.hh"
#include "scheduler_reference.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

using reference::fieldUsedByUop;
using reference::fieldValue;

/** Scalar per-bit model of the scheduler's stress accounting. */
class ScalarSchedModel
{
  public:
    ScalarSchedModel(unsigned entries,
                     const std::vector<BitDecision> *decisions)
        : slots_(entries), decisions_(decisions),
          zero_(fieldLayout().totalBits(), 0),
          busyZero_(fieldLayout().totalBits(), 0)
    {
        if (decisions_) {
            for (const BitDecision &d : *decisions_)
                duty_.emplace_back(d.k);
        }
    }

    void
    allocate(unsigned entry, const Uop &uop, const RenameTags &tags,
             Cycle now)
    {
        Slot &s = slots_.at(entry);
        charge(s, now);
        const FieldLayout &layout = fieldLayout();
        for (unsigned f = 0; f < layout.count(); ++f) {
            const FieldSpec &spec = layout.spec(f);
            const bool used = fieldUsedByUop(spec.id, uop, tags);
            const std::uint64_t value =
                fieldValue(spec.id, uop, tags).lo();
            for (unsigned b = 0; b < spec.width; ++b) {
                const unsigned g = spec.offset + b;
                s.inUse[g] = used;
                if (used)
                    s.bits[g] = (value >> b) & 1;
                else
                    repairBit(s, g);
            }
        }
    }

    void
    release(unsigned entry, Cycle now)
    {
        Slot &s = slots_.at(entry);
        charge(s, now);
        for (unsigned g = 0; g < s.bits.size(); ++g) {
            s.inUse[g] = false;
            if (g == 0)
                s.bits[g] = false; // valid drops, never repaired
            else
                repairBit(s, g);
        }
    }

    /** Charge every slot up to @p now and require the scheduler's
     *  snapshot at @p now to equal the model bit for bit. */
    void
    expectMatches(Scheduler &sched, Cycle now)
    {
        for (Slot &s : slots_)
            charge(s, now);
        const SchedulerStress snap = sched.snapshotStress(now);
        const FieldLayout &layout = fieldLayout();
        ASSERT_EQ(snap.totalBias.size(), layout.count());
        for (unsigned f = 0; f < layout.count(); ++f) {
            const FieldSpec &spec = layout.spec(f);
            EXPECT_EQ(snap.fieldUseTime[f], use_[f]) << spec.name;
            EXPECT_EQ(snap.totalBias[f].totalTime(), total_);
            EXPECT_EQ(snap.busyBias[f].totalTime(), use_[f]);
            for (unsigned b = 0; b < spec.width; ++b) {
                const unsigned g = spec.offset + b;
                EXPECT_EQ(snap.totalBias[f].zeroTime(b), zero_[g])
                    << spec.name << " bit " << b;
                EXPECT_EQ(snap.busyBias[f].zeroTime(b), busyZero_[g])
                    << spec.name << " bit " << b;
            }
        }
    }

  private:
    struct Slot
    {
        std::vector<bool> bits =
            std::vector<bool>(fieldLayout().totalBits(), false);
        std::vector<bool> inUse =
            std::vector<bool>(fieldLayout().totalBits(), false);
        Cycle since = 0;
    };

    /** Charge the slot's current image from its timestamp to @p now
     *  (every sum wraps mod 2^64, like the scheduler's). */
    void
    charge(Slot &s, Cycle now)
    {
        const std::uint64_t dt = now - s.since;
        s.since = now;
        total_ += dt;
        for (unsigned g = 0; g < s.bits.size(); ++g) {
            if (s.bits[g])
                continue;
            zero_[g] += dt;
            if (s.inUse[g])
                busyZero_[g] += dt;
        }
        const FieldLayout &layout = fieldLayout();
        for (unsigned f = 0; f < layout.count(); ++f) {
            if (s.inUse[layout.spec(f).offset])
                use_[f] += dt;
        }
    }

    /** The repair value of layout bit @p g (kept when protection is
     *  off).  K% bits draw their duty generator in ascending layout
     *  order, as the scheduler's repairs do. */
    void
    repairBit(Slot &s, unsigned g)
    {
        if (!decisions_ || g == 0)
            return;
        switch ((*decisions_)[g].technique) {
          case Technique::All1:
            s.bits[g] = true;
            break;
          case Technique::All0:
            s.bits[g] = false;
            break;
          case Technique::All1K:
            s.bits[g] = duty_[g].next();
            break;
          case Technique::All0K:
            s.bits[g] = !duty_[g].next();
            break;
          default:
            break; // None / Unprotectable keep the contents
        }
    }

    std::vector<Slot> slots_;
    const std::vector<BitDecision> *decisions_;
    std::vector<DutyGenerator> duty_;
    std::uint64_t total_ = 0;
    std::vector<std::uint64_t> zero_;
    std::vector<std::uint64_t> busyZero_;
    std::array<std::uint64_t, numFields> use_{};
};

/** Seeded protection decisions over every non-ISV technique. */
std::vector<BitDecision>
mixedDecisions()
{
    Rng rng(0xd3c1);
    std::vector<BitDecision> decisions(fieldLayout().totalBits());
    const Technique kinds[] = {Technique::None, Technique::All1,
                               Technique::All0, Technique::All1K,
                               Technique::All0K};
    for (BitDecision &d : decisions) {
        d.technique = kinds[rng.nextInt(5)];
        d.k = 0.1 + 0.8 * rng.nextDouble();
    }
    return decisions;
}

/** A scheduler and its model, driven in lockstep. */
struct Harness
{
    Harness(unsigned entries, bool protect)
        : decisions(mixedDecisions()),
          sched(SchedulerConfig{entries, 64}),
          model(entries, protect ? &decisions : nullptr),
          gen(WorkloadSet().replayGenerator(7))
    {
        if (protect) {
            sched.configureProtection(decisions);
            sched.enableProtection(true);
        }
    }

    void
    allocate(Cycle now)
    {
        const Uop uop = gen.next();
        RenameTags tags;
        tags.dstTag = static_cast<std::uint8_t>(rng.nextInt(128));
        tags.src1Tag = static_cast<std::uint8_t>(rng.nextInt(128));
        tags.src2Tag = static_cast<std::uint8_t>(rng.nextInt(128));
        tags.ready1 = rng.nextBool(0.5);
        tags.ready2 = rng.nextBool(0.5);
        const int e = sched.allocate(uop, tags, now);
        ASSERT_GE(e, 0);
        model.allocate(static_cast<unsigned>(e), uop, tags, now);
        busy.push_back(static_cast<unsigned>(e));
    }

    /** Release the @p k-th oldest busy entry. */
    void
    release(std::size_t k, Cycle now)
    {
        const unsigned e = busy.at(k);
        busy.erase(busy.begin() + static_cast<std::ptrdiff_t>(k));
        sched.release(e, now);
        model.release(e, now);
    }

    /** One random step at @p now: allocate when nothing is busy or
     *  the coin says so and a slot is free, else release. */
    void
    step(Cycle now)
    {
        if (busy.empty() ||
            (!sched.full() && rng.nextBool(0.55)))
            allocate(now);
        else
            release(rng.nextInt(busy.size()), now);
    }

    std::vector<BitDecision> decisions;
    Scheduler sched;
    ScalarSchedModel model;
    TraceGenerator gen;
    Rng rng{0x5eed};
    std::vector<unsigned> busy;
};

constexpr std::uint64_t kResidences[] = {
    1, 63, 64, 65, (std::uint64_t(1) << 32) + 1};

TEST(SchedulerDrainModel, FixedResidencesMatchScalar)
{
    for (const bool protect : {false, true}) {
        for (const std::uint64_t r : kResidences) {
            SCOPED_TRACE(::testing::Message()
                         << (protect ? "protected" : "unprotected")
                         << " residence " << r);
            Harness h(8, protect);
            Cycle now = 0;
            for (int i = 0; i < 150; ++i) {
                now += r;
                h.step(now);
            }
            h.model.expectMatches(h.sched, now + r);
        }
    }
}

TEST(SchedulerDrainModel, PartialAndMultiBatchCountsMatchScalar)
{
    // Every event count up to a little over two batches of records:
    // the final fold sees partial, exactly-full and multi-batch
    // drains.
    for (const bool protect : {false, true}) {
        for (int events = 1; events <= 140; ++events) {
            SCOPED_TRACE(::testing::Message()
                         << (protect ? "protected" : "unprotected")
                         << " events " << events);
            Harness h(16, protect);
            Cycle now = 0;
            for (int i = 0; i < events; ++i) {
                now += kResidences[h.rng.nextInt(4)];
                h.step(now);
            }
            h.model.expectMatches(h.sched, now + 1);
        }
    }
}

TEST(SchedulerDrainModel, ExactlyFullBatchMatchesScalar)
{
    // 32 allocations park 32 idle records; the snapshot flushes 32
    // busy ones, so its 64th record fills the batch exactly.
    for (const bool protect : {false, true}) {
        Harness h(32, protect);
        for (int i = 0; i < 32; ++i)
            h.allocate(5);
        h.model.expectMatches(h.sched, 70);
    }
}

TEST(SchedulerDrainModel, MidRunReadsMatchScalar)
{
    for (const bool protect : {false, true}) {
        SCOPED_TRACE(protect ? "protected" : "unprotected");
        Harness h(32, protect);
        Rng gaps(0x9a95);
        Cycle now = 0;
        for (int i = 1; i <= 3000; ++i) {
            now += gaps.nextBool(0.02) ? kResidences[gaps.nextInt(5)]
                                       : gaps.nextInt(6);
            h.step(now);
            // Unchecked mid-run snapshots move the drain points.
            if (i % 97 == 0)
                h.sched.snapshotStress(now);
            if (i % 701 == 0)
                h.model.expectMatches(h.sched, now);
        }
        h.model.expectMatches(h.sched, now + 3);
    }
}

TEST(SchedulerDrainModel, SumsWrapModulo2To64)
{
    // Seven slots read at (2^66 - 1) / 7 hold 2^66 - 1 cycles of
    // residence in all: every per-bit total wraps, down to
    // 2^64 - 1.  Busy spans stay short and every slot is free
    // across the long idle gaps, so in-use sums do not wrap.
    const Cycle end = 10540996613548315209ull; // (2^66 - 1) / 7
    for (const bool protect : {false, true}) {
        SCOPED_TRACE(protect ? "protected" : "unprotected");
        Harness h(7, protect);
        Cycle now = 0;
        for (int round = 0; round < 5; ++round) {
            for (int i = 0; i < 40; ++i) {
                now += 1 + h.rng.nextInt(70);
                h.step(now);
            }
            while (!h.busy.empty())
                h.release(0, ++now);
            now += end / 6;
            // A snapshot every round: the later ones read sums that
            // have wrapped, and the final fold adds across the wrap.
            h.sched.snapshotStress(now);
        }
        ASSERT_LT(now, end);
        h.model.expectMatches(h.sched, end);
    }
}

} // namespace
} // namespace penelope
