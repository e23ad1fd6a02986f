/**
 * @file
 * Slot allocation and occupancy for explicitly managed blocks.
 *
 * The scheduler, the register files and the pipeline's timing model
 * hand out entries from a FIFO free list: released entries rejoin at
 * the tail, so allocation rotates through every entry evenly (which
 * self-balances register tags in the scheduler, Section 4.5).  Their
 * occupancy is the time integral of the busy count.  The structures
 * layer their per-bit accounting on top of a SlotPool.
 */

#ifndef PENELOPE_COMMON_SLOT_POOL_HH
#define PENELOPE_COMMON_SLOT_POOL_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace penelope {

/**
 * A FIFO free list over size() entries (initially 0 .. N-1 in
 * order), the busy count and the busy-time integral, charged at
 * every allocate and release.
 */
class SlotPool
{
  public:
    explicit SlotPool(unsigned entries)
        : free_(entries), busy_(entries, 0)
    {
        for (unsigned i = 0; i < entries; ++i)
            free_[i] = i;
    }

    unsigned size() const { return static_cast<unsigned>(free_.size()); }
    unsigned busyCount() const { return busyCount_; }
    bool full() const { return busyCount_ == size(); }
    bool isBusy(unsigned slot) const { return busy_.at(slot) != 0; }

    /** Take the oldest free entry; -1 when every entry is busy. */
    int
    allocate(Cycle now)
    {
        if (full())
            return -1;
        const unsigned slot = free_[head_];
        if (++head_ == size())
            head_ = 0;
        flush(now);
        assert(!busy_[slot]);
        busy_[slot] = 1;
        ++busyCount_;
        return static_cast<int>(slot);
    }

    /** Return busy entry @p slot to the tail of the free list. */
    void
    release(unsigned slot, Cycle now)
    {
        assert(slot < size() && busy_[slot]);
        flush(now);
        busy_[slot] = 0;
        unsigned tail = head_ + size() - busyCount_;
        if (tail >= size())
            tail -= size();
        free_[tail] = slot;
        --busyCount_;
    }

    /** Charge the busy-time integral up to @p now. */
    void
    flush(Cycle now)
    {
        if (now > flushedAt_) {
            busyIntegral_ += static_cast<double>(busyCount_) *
                static_cast<double>(now - flushedAt_);
            flushedAt_ = now;
        }
    }

    /** Busy entry-cycles up to the last flush. */
    double busyIntegral() const { return busyIntegral_; }

    /** Time-weighted busy fraction of entry-time over [0, @p now). */
    double
    occupancy(Cycle now) const
    {
        if (now == 0)
            return 0.0;
        const double pending = static_cast<double>(busyCount_) *
            static_cast<double>(now - flushedAt_);
        return (busyIntegral_ + pending) /
            (static_cast<double>(size()) * static_cast<double>(now));
    }

  private:
    /** Ring of entries: the size() - busyCount_ free ones from
     *  head_ on, so a full and an empty ring never look alike. */
    std::vector<unsigned> free_;
    std::vector<std::uint8_t> busy_;
    unsigned head_ = 0;
    unsigned busyCount_ = 0;
    double busyIntegral_ = 0.0;
    Cycle flushedAt_ = 0;
};

} // namespace penelope

#endif // PENELOPE_COMMON_SLOT_POOL_HH
