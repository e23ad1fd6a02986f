/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * Substitutes the paper's proprietary IA32 trace-driven simulator
 * (Intel Core-like configuration): 4-wide allocate/rename into a
 * 96-entry ROB and 32-entry data-capture scheduler, five issue
 * ports (0/1 integer with one adder each, 2 load AGU, 3 store AGU,
 * 4 FP), physical register files (128 INT / 64 FP), loads through a
 * DTLB + DL0 hierarchy, in-order commit.
 *
 * The pipeline is a timing model.  Scheduler slots and physical
 * registers are SlotPools (allocation order and occupancy, no
 * stored values), so it measures occupancies, port availability,
 * adder utilisation, DL0 hit recency and CPI under cache inversion.
 * Per-bit bias comes from the structure replays instead
 * (scheduler/driver.hh, regfile/driver.hh).
 */

#ifndef PENELOPE_PIPELINE_PIPELINE_HH
#define PENELOPE_PIPELINE_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "cache/timing.hh"
#include "common/ring.hh"
#include "common/slot_pool.hh"
#include "common/stats.hh"
#include "trace/generator.hh"

namespace penelope {

/** How IntAlu uops choose between the two integer-adder ports. */
enum class AdderAllocationPolicy : std::uint8_t
{
    Priority, ///< always try port 0 first (utilisation 11-30%)
    Uniform,  ///< alternate ports (utilisation ~21% each)
};

/** Pipeline configuration. */
struct PipelineConfig
{
    unsigned allocWidth = 4;
    unsigned commitWidth = 4;
    unsigned robEntries = 96;
    unsigned rfWritePorts = 4;

    /** Scheduler slots and physical registers per file. */
    unsigned schedEntries = 32;
    unsigned intRegs = 128;
    unsigned fpRegs = 64;

    AdderAllocationPolicy adderPolicy =
        AdderAllocationPolicy::Uniform;

    /** Branch redirect modelling. */
    double mispredictProb = 0.04;
    unsigned redirectPenalty = 12;

    /** Memory timing. */
    unsigned loadHitLatency = 3;
    unsigned dl0MissPenalty = 12;
    unsigned dtlbMissPenalty = 30;

    /** A 32 KB 8-way DL0 (CacheConfig's default), a 128-entry DTLB. */
    CacheConfig dl0;
    CacheConfig dtlb = CacheConfig::tlb(128, 8);

    /** Cache inversion mechanisms (None = unprotected). */
    MechanismKind dl0Mechanism = MechanismKind::None;
    MechanismKind dtlbMechanism = MechanismKind::None;
    double mechanismTimeScale = 0.1;

    /** Declared so the struct is not an aggregate: GCC 12 reports
     *  the cache names of an aggregate-initialised PipelineConfig{}
     *  temporary as maybe-uninitialized (-Werror builds). */
    PipelineConfig() = default;
};

/** Aggregate statistics of one pipeline run. */
struct PipelineStats
{
    Cycle cycles = 0;
    std::uint64_t uops = 0;
    double cpi = 0.0;

    /** Per-adder utilisation: ports 0/1 integer, 2/3 AGU. */
    double adderUtilization[4] = {0, 0, 0, 0};

    double intRfOccupancy = 0.0;
    double fpRfOccupancy = 0.0;
    double schedOccupancy = 0.0;

    /** Fraction of releases finding a free port. */
    double intRfPortFree = 0.0;
    double fpRfPortFree = 0.0;
    double schedPortFree = 0.0;

    std::uint64_t dl0Hits = 0;
    std::uint64_t dl0Misses = 0;
    std::uint64_t dtlbMisses = 0;

    /** DL0 hit distribution: MRU, MRU+1, remaining positions. */
    double mruHitFraction[3] = {0, 0, 0};
};

/** The core model.  Construct, then run() a trace. */
class Pipeline
{
  public:
    explicit Pipeline(const PipelineConfig &config);

    /** Run one trace.  A Pipeline instance runs exactly once;
     *  construct a fresh one per trace. */
    PipelineStats run(TraceGenerator &gen, std::size_t num_uops);

    Cache &dl0() { return dl0_; }

    /** Histogram of DL0 hit recency positions (Section 3.2.1). */
    const CategoryCounter &dl0MruHits() const { return dl0Mru_; }

  private:
    /** One in-flight uop (ROB entry). */
    struct InFlight
    {
        Uop uop;
        int schedEntry = -1; ///< -1 once issued
        int boundPort = -1;  ///< fixed port binding (-1 = flexible)
        int dstPhys = -1;
        int prevPhys = -1;   ///< mapping replaced at rename
        int src1Phys = -1;
        int src2Phys = -1;
        bool completed = false;
        Cycle completeAt = 0;
        bool issued = false;
        bool mispredicted = false;
    };

    bool sourcesReady(const InFlight &f) const;
    void doCommit(Cycle now);
    void doIssue(Cycle now);
    bool tryAllocate(const Uop &uop, Cycle now);

    PipelineConfig config_;
    SlotPool intRegs_;
    SlotPool fpRegs_;
    SlotPool sched_;
    Cache dl0_;
    Cache dtlb_;
    CategoryCounter dl0Mru_;
    Rng rng_;

    /** Rename maps: architectural -> physical. */
    std::vector<int> intMap_;
    std::vector<int> fpMap_;
    /** Physical register scoreboards (value produced). */
    std::vector<bool> intReady_;
    std::vector<bool> fpReady_;

    /** In-order ROB window (bounded by robEntries), kept in a flat
     *  ring: issue and completion scan it every cycle. */
    RingQueue<InFlight> rob_;

    /** Redirect stall: allocation blocked until this cycle. */
    Cycle allocBlockedUntil_ = 0;

    /** Per-cycle port usage (reset each cycle). */
    unsigned rfWritesThisCycle_ = 0;
    unsigned allocsThisCycle_ = 0;

    /** Counters. */
    std::uint64_t adderBusy_[4] = {0, 0, 0, 0};
    std::uint64_t rfReleaseFree_[2] = {0, 0};
    std::uint64_t rfReleaseTotal_[2] = {0, 0};
    std::uint64_t schedReleaseFree_ = 0;
    std::uint64_t schedReleaseTotal_ = 0;
    bool uniformNextPortZero_ = true;
};

} // namespace penelope

#endif // PENELOPE_PIPELINE_PIPELINE_HH
