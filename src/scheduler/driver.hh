/**
 * @file
 * Trace replay driver for the scheduler.
 *
 * Models slot lifecycle timing: uops arrive at a configurable
 * dispatch rate, occupy a slot for a geometrically distributed
 * residence (wait-for-operands plus issue), and release through the
 * allocate write ports, which are free with the paper's measured
 * 77% probability.  Defaults are calibrated to the paper's 63%
 * average occupancy.
 *
 * One replay drives one or more schedulers on one timeline.  None
 * of the timeline depends on protection: arrivals, residences,
 * rename-tag draws and port draws come from the replay's Rng (the
 * port draw is taken whether or not the port is free), and every
 * scheduler's FIFO free list hands out the same slot.  So a
 * scheduler driven alongside others ends bit-identical to one
 * replayed alone, and a trace's unprotected and protected arms
 * (SchedulerPass) share one replay.
 */

#ifndef PENELOPE_SCHEDULER_DRIVER_HH
#define PENELOPE_SCHEDULER_DRIVER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "scheduler.hh"
#include "trace/generator.hh"

namespace penelope {

/** Replay parameters. */
struct SchedReplayConfig
{
    /** Mean uops dispatched per cycle (subject to slot space). */
    double arrivalRate = 2.5;

    /** Mean slot residence in cycles (allocate to issue). */
    double meanResidence = 8.0;

    /** Probability an allocate port is free at release time. */
    double portFreeProb = 0.77;

    std::uint64_t seed = 0x5c4ed;
};

/** Outcome of a replay. */
struct SchedReplayResult
{
    Cycle cycles = 0;
    std::uint64_t allocated = 0;
    std::uint64_t released = 0;
    std::uint64_t stallCycles = 0; ///< cycles with a blocked uop
    double occupancy = 0.0;
};

/**
 * Replays a uop stream against a Scheduler.
 *
 * The uop source is any type with a `Uop next()` member: the
 * workload's TraceGenerator, or an adversarial source such as
 * AttackTraceGenerator (trace/attack.hh).  Replay timing --
 * arrivals, residences, port availability -- is drawn from the
 * replay's own Rng either way, so two sources differ only in the
 * uops they feed the slots.
 */
class SchedulerReplay
{
  public:
    /** A replay with no scheduler yet: attach() them before the
     *  first feed(). */
    explicit SchedulerReplay(const SchedReplayConfig &config);

    /** The one-scheduler replay: attach(@p scheduler). */
    SchedulerReplay(Scheduler &scheduler,
                    const SchedReplayConfig &config);

    /** Drive @p scheduler too.  Only before the first feed(); every
     *  attached scheduler has the same number of entries. */
    void attach(Scheduler &scheduler);

    /**
     * Replay the next @p n uops of the stream.  Cycles run until the
     * fed uops are used up; a cycle whose arrivals ran out of uops
     * stays open, and the next feed() continues its arrivals.
     */
    void feed(const Uop *uops, std::size_t n);

    /**
     * Close the stream: finish the open cycle, release every
     * outstanding entry and return the counters since the previous
     * result().  The clock carries on into the next stream.
     */
    SchedReplayResult result();

    /** Consume @p num_uops uops from @p gen; returns result(). */
    template <class Gen>
    SchedReplayResult
    run(Gen &gen, std::size_t num_uops)
    {
        streamChunks(gen, num_uops,
                     [&](const Uop *uops, std::size_t n) {
                         feed(uops, n);
                     });
        return result();
    }

  private:
    RenameTags nextTags(const Uop &uop);

    void release(unsigned e, Cycle now);

    /** Release every entry due at @p now. */
    void releaseDue(Cycle now);

    /** Move far-off pending releases whose due cycle now falls
     *  inside the wheel window into their buckets. */
    void promoteFar(Cycle now);

    /** Attached schedulers; the first answers occupancy queries
     *  (every one sees the same allocations and releases). */
    std::vector<Scheduler *> scheds_;
    SchedReplayConfig config_;
    Rng rng_;
    std::vector<Cycle> releaseAt_; ///< per entry; 0 = free

    /** Calendar wheel over the next 64 cycles: bucket c is an
     *  entry-bit mask of releases due at cycles congruent to c
     *  (mod 64).  Every entry fits one mask word: a scheduler has
     *  at most 64 entries. */
    std::array<std::uint64_t, 64> wheel_{};
    std::vector<unsigned> far_; ///< pending releases >= 64 cycles out

    std::uint8_t tagCounter_ = 0;

    /** Persistent clock so successive streams continue time. */
    Cycle clock_ = 0;
    double arrivalAcc_ = 0.0;

    /** A fed uop that found no free slot; it retries next cycle. */
    std::optional<Uop> pending_;

    /** Releases and the arrival credit of cycle clock_ are done;
     *  its arrivals wait for more uops. */
    bool cycleOpen_ = false;

    SchedReplayResult result_; ///< counters since the last result()
};

/**
 * Default-configured schedulers on one replay timeline: the
 * per-trace state of a streamed pass (Engine::streamCached) that
 * computes several arms of one trace.  Each SchedulerRun adds its
 * scheduler before the first feed; the first run feeds the pass,
 * and the replay closes once, when the first run takes its result.
 */
class SchedulerPass
{
  public:
    explicit SchedulerPass(const SchedReplayConfig &config)
        : replay_(config)
    {
    }

    SchedulerPass(const SchedulerPass &) = delete;
    SchedulerPass &operator=(const SchedulerPass &) = delete;

    /** Add a scheduler; with @p decisions set the protection they
     *  describe is installed and enabled.  Returns it and whether
     *  it is the pass's first. */
    std::pair<Scheduler *, bool>
    add(const std::vector<BitDecision> *decisions)
    {
        scheds_.push_back(
            std::make_unique<Scheduler>(SchedulerConfig{}));
        Scheduler &sched = *scheds_.back();
        if (decisions) {
            sched.configureProtection(*decisions);
            sched.enableProtection(true);
        }
        replay_.attach(sched);
        return {&sched, scheds_.size() == 1};
    }

    void feed(const Uop *uops, std::size_t n) { replay_.feed(uops, n); }

    /** The cycle count of the closed stream (closes it once). */
    Cycle
    cycles()
    {
        if (!cycles_)
            cycles_ = replay_.result().cycles;
        return *cycles_;
    }

  private:
    SchedulerReplay replay_;
    std::vector<std::unique_ptr<Scheduler>> scheds_;
    std::optional<Cycle> cycles_;
};

/**
 * One arm of a SchedulerPass: the unit a streamed trace pass feeds.
 * With @p decisions set its scheduler is protected.  The two-argument
 * form runs on a pass of its own.
 */
class SchedulerRun
{
  public:
    SchedulerRun(std::shared_ptr<SchedulerPass> pass,
                 const std::vector<BitDecision> *decisions)
        : pass_(std::move(pass))
    {
        std::tie(sched_, feedsPass_) = pass_->add(decisions);
    }

    SchedulerRun(const std::vector<BitDecision> *decisions,
                 const SchedReplayConfig &config)
        : SchedulerRun(std::make_shared<SchedulerPass>(config),
                       decisions)
    {
    }

    SchedulerRun(const SchedulerRun &) = delete;
    SchedulerRun &operator=(const SchedulerRun &) = delete;

    void
    feed(const Uop *uops, std::size_t n)
    {
        if (feedsPass_)
            pass_->feed(uops, n);
    }

    SchedulerStress
    result()
    {
        return sched_->snapshotStress(pass_->cycles());
    }

  private:
    std::shared_ptr<SchedulerPass> pass_;
    Scheduler *sched_ = nullptr;
    bool feedsPass_ = false;
};

} // namespace penelope

#endif // PENELOPE_SCHEDULER_DRIVER_HH
