/**
 * @file
 * NBTI-aware scheduler model (Section 4.5).
 *
 * An explicitly managed block with short idle time and many fields
 * of distinct usage/bias patterns.  Protection writes per-field
 * repair values from a RINV register into slots when they are
 * released (and into fields left unused by the occupying uop at
 * allocation), using the per-bit techniques chosen by the Figure-3
 * casuistic.
 *
 * Duty accounting is word-parallel: every entry packs its 18 fields
 * into one 144-bit slot image (three 64-bit words) with a single
 * residence timestamp.  A flush parks the {image, in-use, dt} record
 * in a 64-deep batch, its lane in the bit-plane of every set bit of
 * its duration; a full batch drains plane by plane (a fixed-depth
 * register count of the plane's images, then one ripple-carry add
 * into bit-sliced counter banks), and any reader folds the banks
 * into 144-bit per-bit accumulators (total zero-time, in-use
 * zero-time) with one 64x64 transpose per layout word.  Per-field
 * BitBiasTracker views are materialised only when a snapshot is
 * taken; the sums are exact unsigned integers, so the statistics
 * equal the per-bit, per-event form (tests/test_replay_batch.cc pins
 * them; tests/test_sched_drain.cc holds them to a scalar model).
 */

#ifndef PENELOPE_SCHEDULER_SCHEDULER_HH
#define PENELOPE_SCHEDULER_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/duty.hh"
#include "common/slot_pool.hh"
#include "common/types.hh"
#include "fields.hh"
#include "techniques.hh"

namespace penelope {

/** Static scheduler parameters. */
struct SchedulerConfig
{
    unsigned numEntries = 32; ///< in [1, 64]

    /** Allocations between RINV refreshes of the ISV fields. */
    unsigned isvSampleInterval = 64;
};

/** Per-bit profile measured with protection disabled. */
struct BitProfile
{
    /** Fraction of entry-time the bit holds live data. */
    double occupancy = 0.0;

    /** P(bit == 0) while holding live data. */
    double bias0Busy = 0.5;
};

/**
 * Flushed, mergeable stress/occupancy accounting of a Scheduler.
 *
 * The parallel experiment engine runs every trace against its own
 * Scheduler, snapshots this struct, and merges the snapshots in
 * trace order; the duty-time sums make the aggregate independent of
 * how traces were distributed over workers.
 */
struct SchedulerStress
{
    unsigned numEntries = 0;
    Cycle cycles = 0; ///< simulated time covered by the snapshot
    double busyIntegral = 0.0;
    std::vector<BitBiasTracker> totalBias; ///< per field
    std::vector<BitBiasTracker> busyBias;  ///< per field, in-use only
    std::vector<std::uint64_t> fieldUseTime;

    /** Combine another snapshot (same geometry) into this one. */
    void merge(const SchedulerStress &other);

    /** Time-weighted slot occupancy over the covered time. */
    double occupancy() const;

    /** Concatenated per-bit bias towards "0" in layout order. */
    std::vector<double> biasVector() const;

    /** Per-bit profiles for the casuistic (layout order). */
    std::vector<BitProfile> bitProfiles() const;

    /** Worst |bias - 0.5| + 0.5 over the Figure-8 bits. */
    double worstFigure8Bias() const;
};

/**
 * The scheduler structure: slot lifecycle, per-bit stress
 * accounting, and the RINV-based repair machinery.
 */
class Scheduler
{
  public:
    /** 64-bit words in the packed 144-bit slot layout. */
    static constexpr unsigned kLayoutWords = 3;

    using LayoutWords = std::array<std::uint64_t, kLayoutWords>;

    /** Throws std::invalid_argument for numEntries outside
     *  [1, 64]. */
    explicit Scheduler(const SchedulerConfig &config);

    /** Install per-bit protection decisions (layout order; size
     *  must equal fieldLayout().totalBits()). */
    void configureProtection(std::vector<BitDecision> decisions);

    void enableProtection(bool enabled);

    /** Allocate a slot for @p uop; returns -1 when full. */
    int allocate(const Uop &uop, const RenameTags &tags, Cycle now);

    /** Release a slot (issue).  With protection on, the repair
     *  values are written through an allocate port; when none is
     *  free the update is delayed by a cycle or two, negligible
     *  against multi-cycle residences (Section 3.2), so it is
     *  modelled as applied. */
    void release(unsigned entry, Cycle now);

    unsigned numEntries() const { return config_.numEntries; }
    unsigned busyCount() const { return pool_.busyCount(); }
    bool full() const { return pool_.full(); }

    /** Time-weighted slot occupancy (paper: 63%). */
    double occupancy(Cycle now) const { return pool_.occupancy(now); }

    /** Time-weighted fraction of entry-time field @p f holds live
     *  data (paper: SRC data/imm available 70-75% of the time). */
    double fieldOccupancy(FieldId f, Cycle now) const;

    /** Flush accounting to @p now and snapshot it for merging. */
    SchedulerStress snapshotStress(Cycle now);

    /** Build the repair value for one field at this instant.
     *  @p write_isv gates the ISV bits (the 50%-of-overall-time
     *  balance meter, Section 3.2.2).  Branch-free: the per-bit
     *  technique switch is precomputed into layout masks; only
     *  the K%-duty bits keep per-bit generator state (public so
     *  tests can pin the mask recipe against the scalar form).
     *  The valid bit is never repaired: it comes back unchanged. */
    BitWord repairValue(unsigned field, const BitWord &current,
                        bool write_isv);

    /** The whole released image in one pass: repairValue applied to
     *  every field of @p current, with bit f of @p write_isv as
     *  field f's write_isv.  Every bit has its own duty generator,
     *  so this equals the field-by-field form (public so tests can
     *  pin that). */
    LayoutWords repairImage(const LayoutWords &current,
                            std::uint32_t write_isv);

  private:
    struct Entry
    {
        /** Packed field values in layout order. */
        LayoutWords image{};

        /** Fields in use (bit f = field f; fields are used whole,
         *  so a flush rebuilds per-bit in-use masks from this). */
        std::uint32_t inUseFields = 0;

        /** Per-field "last repair wrote RINV" bits. */
        std::uint32_t holdsInverted = 0;

        /** Residence of the current image (shared by all fields:
         *  every image change flushes the whole entry). */
        Cycle since = 0;

        /** Deferred-release busy duration awaiting a merged flush.
         *  An unprotected release changes the image by one bit (the
         *  valid drop), so its busy record and the idle record that
         *  follows can share one batch slot: the release parks its
         *  duration here and the next flush emits both spans as one
         *  record with a separate busy duration (the valid bit's
         *  idle zero-time is corrected at fold). */
        Cycle pendingBusyDt = 0;
    };

    /** Precomputed placement of one field in the packed layout. */
    struct FieldSlot
    {
        std::uint64_t widthMask; ///< (1 << width) - 1
        unsigned word0;
        unsigned shift0;
        unsigned bitsInWord0; ///< < width when the field straddles
        bool straddles;
    };

    /** One ALL1-K%/ALL0-K% bit (these keep per-bit duty generator
     *  state). */
    struct KBit
    {
        std::uint16_t global; ///< layout-order bit index
        bool inverted;        ///< ALL0-K%: write !next()
    };

    /** An ISV field and its bits in the packed layout. */
    struct IsvField
    {
        unsigned field;
        LayoutWords mask;
    };

    /** Extract/deposit one field of a packed image. */
    std::uint64_t extractField(const LayoutWords &image,
                               unsigned field) const;
    void depositField(LayoutWords &image, unsigned field,
                      std::uint64_t value);

    /** Charge the entry's image residence up to @p now into the
     *  sliced accumulators. */
    void flushEntry(Entry &e, Cycle now);

    /** Park one record: its image, its zeroed in-use complement
     *  (@p uf: fields in use, 0 for an idle record) and its
     *  durations' bit-planes.  Drains a full batch. */
    void appendRecord(const LayoutWords &image, std::uint64_t dt,
                      std::uint64_t busy_dt, std::uint32_t uf) const;

    void flushAll(Cycle now);

    /** Add every pending batch record into the bit-sliced counter
     *  banks, one duration plane at a time.  Const because readers
     *  (fieldOccupancy) must be able to drain; the batch state and
     *  the banks it feeds are mutable. */
    void drainBatch() const;

    /** drainBatch(), then charge the counter banks into the
     *  accumulators: one 64x64 transpose per layout word turns each
     *  bank straight into per-bit totals (word b of the transposed
     *  bank is bit b's exact summed time).  Every reader of the
     *  accumulators goes through this. */
    void foldBatch() const;

    /** Flush the parked busy span of every deferred release (the
     *  busy-only record an undeferred release emits at release
     *  time) so readers see the same records either way.  Needs
     *  no "now": the idle span keeps accruing from the entry's
     *  timestamp. */
    void sweepPending() const;

    /** Recompute the repair masks and lists from decisions_. */
    void rebuildRepairPlans();

    /** Field @p field's ISV balance meter: true while non-inverted
     *  residence leads, i.e. the next repair writes the inverted
     *  sample. */
    bool
    meterWantsInverted(unsigned field) const
    {
        return entryTime_ - fieldInvertedTime_[field] >=
            fieldInvertedTime_[field];
    }

    /** repairValue on packed field bits. */
    std::uint64_t repairBits(unsigned field, std::uint64_t current,
                             bool write_isv);

    /** Apply a repair to an entry's field and update its
     *  inverted-residence bookkeeping. */
    void applyRepair(Entry &e, unsigned field);

    /** Refresh the ISV bits of RINV from @p uop's field values. */
    void sampleRinv(const Uop &uop, const RenameTags &tags);

    SchedulerConfig config_;

    /** Mutable: const readers sweep deferred releases (which
     *  converts a pending entry to its post-release image) before
     *  folding the accumulators. */
    mutable std::vector<Entry> entries_;

    /** Per-field packed-layout placement. */
    std::vector<FieldSlot> slots_;

    /** FIFO free list and occupancy: slots rotate evenly, so
     *  every entry sees repair writes (and tag/slot usage is
     *  self-balanced). */
    SlotPool pool_;

    bool protectionEnabled_ = false;
    std::vector<BitDecision> decisions_;
    std::vector<DutyGenerator> dutyGens_; ///< per layout bit

    /** RINV register in the packed layout (the inversion of zero
     *  until first sampled). */
    LayoutWords rinv_{~std::uint64_t(0), ~std::uint64_t(0),
                      ~std::uint64_t(0)};
    std::uint64_t allocCount_ = 0;

    /** Per-field ISV balance meters.  Only inverted residence is
     *  accumulated; non-inverted residence is entryTime_ minus it
     *  (every flush charges each field exactly once). */
    std::vector<std::uint64_t> fieldInvertedTime_;

    /**
     * The repair recipe, precomputed from the per-bit decisions in
     * the packed layout so no repair dispatches on a technique.
     * None/Unprotectable bits (and the valid bit) are kept, ALL1
     * bits pinned to 1, ISV bits written from RINV or its
     * inversion; bits in no mask (ALL0) come out 0.  K% bits are
     * listed in ascending layout order, field f's at
     * kBits_[kBegin_[f] .. kBegin_[f + 1]).
     */
    LayoutWords repairKeep_{};
    LayoutWords repairAll1_{};
    LayoutWords repairIsv_{};
    std::vector<IsvField> isvFields_;
    std::uint32_t isvFieldBits_ = 0; ///< bit f = field f has ISV
    std::vector<KBit> kBits_;
    std::array<std::uint16_t, numFields + 1> kBegin_{};

    /** Sliced duty accounting over the 144-bit layout.  Mutable:
     *  const readers drain the pending batch into them. */
    mutable MaskedTimeAccumulator zeroTotal_; ///< zero-time, all
    mutable MaskedTimeAccumulator busyZero_;  ///< zero-time, in use

    /** Per-field in-use time.  Fields are used whole, so the
     *  per-bit in-use times the snapshots expose are one shared
     *  counter per field, not a 144-bit accumulator. */
    mutable std::array<std::uint64_t, numFields> fieldBusyTime_{};

    /**
     * Pending flush records, stored struct-of-arrays: record v of
     * the batch is lane/bit v of the duration bit-planes.  Lane v of
     * dtPlane_[l] is set iff record v's duration has bit l;
     * busyPlane_ does the same for the busy-span duration (the full
     * duration for a busy flush, 0 for an idle one, the parked
     * release duration for a merged busy+idle record).  The ORs of
     * the durations bound the planes in use.
     */
    static constexpr unsigned kBatchDepth = 64;
    /** Lane-major: record v's slot image is batchImage_[v]. */
    mutable std::uint64_t batchImage_[kBatchDepth][kLayoutWords]{};
    /** Busy record v's zeroed in-use complement (~image & in-use),
     *  what its busy span adds to the in-use zero-times. */
    mutable std::uint64_t batchZero_[kBatchDepth][kLayoutWords]{};
    mutable std::uint64_t dtPlane_[64]{};
    mutable std::uint64_t busyPlane_[64]{};
    mutable std::uint64_t dtOr_ = 0;
    mutable std::uint64_t busyDtOr_ = 0;
    mutable unsigned batchCount_ = 0;

    /** Entries with a deferred release parked (bit = entry
     *  index). */
    mutable std::uint64_t pendingMask_ = 0;

    /**
     * Bit-sliced binary counters holding drained-but-unfolded
     * per-bit time sums: level l, word w is a mask whose bit b
     * carries weight 2^l in layout bit (w*64 + b)'s pending total.
     * The drain adds each duration plane's summed images (resp.
     * zeroed in-use complements) at the plane's level; carries past
     * level 63 drop, which is exactly the accumulators' mod-2^64
     * wrap.  foldBatch() transposes each word's 64 levels to recover
     * every bit's exact total in one step.
     *
     * Field in-use times need no slicing: the always-used fields
     * share one duration sum and each capture field keeps its own
     * (fields are used whole), folded into fieldBusyTime_.  The
     * duration sums are charged at append.
     */
    mutable std::uint64_t oneBank_[64][kLayoutWords]{};
    mutable std::uint64_t busyZeroBank_[64][kLayoutWords]{};
    mutable std::uint64_t dtGrand_ = 0;     ///< sum dt, all records
    mutable std::uint64_t busyDtGrand_ = 0; ///< sum busy-span dt
    mutable std::uint64_t s1DtGrand_ = 0;   ///< sum dt, Src1Data live
    mutable std::uint64_t s2DtGrand_ = 0;   ///< sum dt, Src2Data live
    mutable std::uint64_t immDtGrand_ = 0;  ///< sum dt, Imm live

    /** Valid-bit zero-time carried by merged records' idle spans
     *  (their image keeps valid = 1 from the busy span; the one
     *  bit the release would have dropped is credited here). */
    mutable std::uint64_t validIdleGrand_ = 0;

    /** Total flushed residence time (identical for every bit:
     *  each entry flush covers the whole layout). */
    std::uint64_t entryTime_ = 0;
};

} // namespace penelope

#endif // PENELOPE_SCHEDULER_SCHEDULER_HH
