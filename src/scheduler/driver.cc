#include "driver.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace penelope {

SchedulerReplay::SchedulerReplay(const SchedReplayConfig &config)
    : config_(config), rng_(config.seed)
{
}

SchedulerReplay::SchedulerReplay(Scheduler &scheduler,
                                 const SchedReplayConfig &config)
    : SchedulerReplay(config)
{
    attach(scheduler);
}

void
SchedulerReplay::attach(Scheduler &scheduler)
{
    assert(clock_ == 0 && !cycleOpen_);
    if (scheds_.empty())
        releaseAt_.assign(scheduler.numEntries(), 0);
    assert(scheduler.numEntries() == releaseAt_.size());
    scheds_.push_back(&scheduler);
}

void
SchedulerReplay::release(unsigned e, Cycle now)
{
    // A busy port only delays the repair, which the scheduler models
    // as applied; the draw stays so the replay stream is unchanged.
    rng_.nextBool(config_.portFreeProb);
    for (Scheduler *sched : scheds_)
        sched->release(e, now);
    releaseAt_[e] = 0;
    ++result_.released;
}

void
SchedulerReplay::releaseDue(Cycle now)
{
    // The calendar wheel holds each pending entry whose release
    // falls inside the next 64 cycles in the bucket of its due
    // cycle, so a cycle reads one word instead of scanning every
    // slot; entries further out wait in far_ and are promoted at
    // wheel-period boundaries, always before they fall due.  Due
    // entries are drained in ascending slot order.
    if ((now & 63) == 0 && !far_.empty())
        promoteFar(now);
    std::uint64_t due = wheel_[now & 63];
    wheel_[now & 63] = 0;
    for (; due; due &= due - 1)
        release(static_cast<unsigned>(std::countr_zero(due)), now);
}

void
SchedulerReplay::feed(const Uop *uops, std::size_t n)
{
    std::size_t next = 0;
    for (;;) {
        if (!cycleOpen_) {
            // Wait at the cycle boundary until there is a uop to
            // dispatch: if the stream ends here, result() drains
            // instead of running another cycle.
            if (next == n && !pending_)
                return;
            releaseDue(clock_);
            arrivalAcc_ += config_.arrivalRate;
            cycleOpen_ = true;
        }

        // Arrivals.
        bool stalled = false;
        while (arrivalAcc_ >= 1.0) {
            Uop uop;
            if (pending_) {
                uop = *pending_;
                pending_.reset();
            } else if (next < n) {
                uop = uops[next++];
            } else {
                return; // the cycle stays open for the next feed
            }
            // Every scheduler has the same free list, so each takes
            // the slot the first one does.
            const RenameTags tags = nextTags(uop);
            const int entry =
                scheds_.front()->allocate(uop, tags, clock_);
            for (std::size_t s = 1; s < scheds_.size(); ++s) {
                [[maybe_unused]] const int same =
                    scheds_[s]->allocate(uop, tags, clock_);
                assert(same == entry);
            }
            if (entry < 0) {
                pending_ = uop;
                stalled = true;
                break;
            }
            arrivalAcc_ -= 1.0;
            ++result_.allocated;
            const Cycle residence =
                1 + rng_.nextGeometric(1.0 / config_.meanResidence);
            const Cycle at = clock_ + residence;
            releaseAt_[static_cast<unsigned>(entry)] = at;
            if (residence < 64) {
                wheel_[at & 63] |= std::uint64_t(1)
                    << static_cast<unsigned>(entry);
            } else {
                far_.push_back(static_cast<unsigned>(entry));
            }
        }
        if (stalled) {
            ++result_.stallCycles;
            // Cap the backlog so a long stall does not burst later.
            arrivalAcc_ = std::min(arrivalAcc_, 4.0);
        }
        ++clock_;
        cycleOpen_ = false;
    }
}

SchedReplayResult
SchedulerReplay::result()
{
    assert(!scheds_.empty());
    if (cycleOpen_) {
        ++clock_;
        cycleOpen_ = false;
    }
    // Drain outstanding entries in slot order (releaseAt_ stays
    // authoritative for the wheel).
    for (unsigned e = 0; e < releaseAt_.size(); ++e) {
        if (releaseAt_[e] != 0) {
            clock_ = std::max(clock_, releaseAt_[e]);
            release(e, clock_);
        }
    }
    wheel_.fill(0);
    far_.clear();

    SchedReplayResult r = result_;
    result_ = SchedReplayResult();
    r.cycles = clock_;
    r.occupancy = scheds_.front()->occupancy(clock_);
    return r;
}

void
SchedulerReplay::promoteFar(Cycle now)
{
    std::size_t keep = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
        const unsigned e = far_[i];
        // Far entries are never due yet (they are promoted at the
        // last wheel-period boundary before their release cycle),
        // so the distance is a plain unsigned difference.
        if (releaseAt_[e] - now < 64)
            wheel_[releaseAt_[e] & 63] |= std::uint64_t(1) << e;
        else
            far_[keep++] = e;
    }
    far_.resize(keep);
}

RenameTags
SchedulerReplay::nextTags(const Uop &uop)
{
    // Physical tags rotate through the full tag space, which makes
    // the tag fields self-balanced, exactly as the paper observes
    // for evenly used register files and MOB slots.
    RenameTags tags;
    tags.dstTag = tagCounter_;
    tagCounter_ = (tagCounter_ + 1) & 0x7f;
    tags.src1Tag = static_cast<std::uint8_t>(
        (tagCounter_ + 17 + uop.srcReg1) & 0x7f);
    tags.src2Tag = static_cast<std::uint8_t>(
        (tagCounter_ + 43 + uop.srcReg2) & 0x7f);
    // A missing operand is trivially ready; present operands are
    // ready at allocation with the calibrated probability.
    tags.ready1 = !uop.usesSrc1() || rng_.nextBool(0.65);
    tags.ready2 = !uop.usesSrc2() || rng_.nextBool(0.55);
    return tags;
}

} // namespace penelope
