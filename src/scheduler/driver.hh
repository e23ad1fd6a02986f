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
 * replayed alone, and a SchedulerPass replays every arm of a trace
 * -- unprotected and protected -- on one timeline.
 */

#ifndef PENELOPE_SCHEDULER_DRIVER_HH
#define PENELOPE_SCHEDULER_DRIVER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
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
 * Default-configured schedulers on one replay timeline: the pass
 * that computes the arms of one trace in one replay (the unit
 * Engine::streamCached feeds).
 */
class SchedulerPass
{
  public:
    /** One scheduler per entry of @p protect, in order; an arm whose
     *  entry is set has @p decisions installed and enabled. */
    SchedulerPass(const SchedReplayConfig &config,
                  const std::vector<BitDecision> &decisions,
                  const std::vector<bool> &protect)
        : replay_(config)
    {
        for (const bool on : protect) {
            scheds_.push_back(
                std::make_unique<Scheduler>(SchedulerConfig{}));
            Scheduler &sched = *scheds_.back();
            if (on) {
                sched.configureProtection(decisions);
                sched.enableProtection(true);
            }
            replay_.attach(sched);
        }
    }

    void feed(const Uop *uops, std::size_t n) { replay_.feed(uops, n); }

    /** Close the stream; each arm's stress, in arm order. */
    std::vector<SchedulerStress>
    results()
    {
        const Cycle cycles = replay_.result().cycles;
        std::vector<SchedulerStress> out;
        for (const auto &sched : scheds_)
            out.push_back(sched->snapshotStress(cycles));
        return out;
    }

  private:
    SchedulerReplay replay_;
    std::vector<std::unique_ptr<Scheduler>> scheds_;
};

} // namespace penelope

#endif // PENELOPE_SCHEDULER_DRIVER_HH
