/**
 * @file
 * NBTI-aware physical register file (Section 4.4).
 *
 * An explicitly managed block whose entries are free most of the
 * time.  The ISV mechanism writes the RINV register (an inverted
 * sampled value) into entries as they are released, through write
 * ports left idle by the pipeline, so every bit cell spends about
 * half its lifetime holding each polarity.  A single sampled entry's
 * inverted/non-inverted residence times (tracked with timestamps)
 * gate the updates at 50% of overall time, per the paper's ISV
 * description.
 */

#ifndef PENELOPE_REGFILE_REGFILE_HH
#define PENELOPE_REGFILE_REGFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitword.hh"
#include "common/duty.hh"
#include "common/slot_pool.hh"
#include "common/types.hh"

namespace penelope {

/** Static register-file parameters. */
struct RegFileConfig
{
    std::string name = "INT-RF";
    unsigned numEntries = 128;
    unsigned width = 32;

    /** RINV resampling interval in writes (the paper suggests
     *  refreshing RINV periodically from a write port). */
    unsigned rinvSampleInterval = 64;
};

/** ISV mechanism statistics. */
struct IsvStats
{
    std::uint64_t updatesApplied = 0;   ///< RINV writes at release
    std::uint64_t updatesDiscarded = 0; ///< no free port available
    std::uint64_t updatesSkipped = 0;   ///< balance meter said skip

    /** Combine counters from another (per-trace) run. */
    void
    merge(const IsvStats &other)
    {
        updatesApplied += other.updatesApplied;
        updatesDiscarded += other.updatesDiscarded;
        updatesSkipped += other.updatesSkipped;
    }
};

/**
 * Physical register file with free-list allocation, per-bit duty
 * tracking and the optional ISV protection mechanism.
 */
class RegisterFile
{
  public:
    explicit RegisterFile(const RegFileConfig &config);

    /** Enable/disable the ISV invert-at-release mechanism. */
    void enableIsv(bool enabled) { isvEnabled_ = enabled; }

    /** Allocate a free entry; returns -1 when full. */
    int allocate(Cycle now) { return pool_.allocate(now); }

    /** Write a program value into a (busy) entry. */
    void write(unsigned entry, const BitWord &value, Cycle now);

    /** Convenience for plain 64-bit values. */
    void write(unsigned entry, Word value, Cycle now);

    /**
     * Release an entry back to the free list.  When ISV is enabled
     * and @p port_available, the entry may be refreshed with RINV
     * according to the balance meter; updates without a port are
     * discarded (their NBTI impact is negligible, Section 4.4).
     */
    void release(unsigned entry, Cycle now, bool port_available);

    unsigned numEntries() const { return config_.numEntries; }
    unsigned width() const { return config_.width; }
    unsigned busyCount() const { return pool_.busyCount(); }
    bool isBusy(unsigned entry) const { return pool_.isBusy(entry); }

    /** Time-weighted fraction of entry-time spent busy. */
    double occupancy(Cycle now) const { return pool_.occupancy(now); }

    const IsvStats &isvStats() const { return isvStats_; }

    /** Current RINV register contents. */
    const BitWord &rinv() const { return rinv_; }

    /** Flush residence accounting to @p now and return the per-bit
     *  bias tracker. */
    const BitBiasTracker &finalizeBias(Cycle now);

  private:
    struct Entry
    {
        BitWord value;
        bool holdsInverted = false;
        Cycle valueSince = 0;
    };

    /** Account @p entry's current value up to @p now (inline: runs
     *  once per value change on the replay hot path).  Charged
     *  eagerly: parking residences in a 64-record batch measured
     *  slower, because observe() is already one direct add per set
     *  bit. */
    void
    flushEntry(Entry &e, Cycle now)
    {
        if (now > e.valueSince) {
            bias_.observe(e.value, now - e.valueSince);
            e.valueSince = now;
        }
    }

    /** Entry used for the ISV balance sampling (a fixed entry for
     *  simplicity, as in the paper). */
    static constexpr unsigned kSampledEntry = 0;

    /** Update the sampled-entry balance meter on a state change. */
    void
    meterFlush(Cycle now)
    {
        if (now > sampledSince_) {
            const std::uint64_t dt = now - sampledSince_;
            if (entries_[kSampledEntry].holdsInverted)
                sampledInvertedTime_ += dt;
            else
                sampledNonInvertedTime_ += dt;
            sampledSince_ = now;
        }
    }

    RegFileConfig config_;
    std::vector<Entry> entries_;

    /** FIFO free list and occupancy: physical registers rotate
     *  through all entries evenly (this is what makes register tags
     *  self-balanced in the scheduler, Section 4.5). */
    SlotPool pool_;
    bool isvEnabled_ = false;

    BitWord rinv_;

    /** Writes left until the next RINV resample (countdown form of
     *  writeCount % rinvSampleInterval == 0: division-free). */
    std::uint64_t rinvCountdown_ = 0;

    /** Timestamp-based balance meter for the sampled entry. */
    std::uint64_t sampledInvertedTime_ = 0;
    std::uint64_t sampledNonInvertedTime_ = 0;
    Cycle sampledSince_ = 0;

    IsvStats isvStats_;
    BitBiasTracker bias_;
};

} // namespace penelope

#endif // PENELOPE_REGFILE_REGFILE_HH
