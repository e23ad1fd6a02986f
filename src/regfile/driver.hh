/**
 * @file
 * Trace replay driver for register files.
 *
 * Models the renaming lifecycle the paper's simulator exposes to the
 * register file: a writing uop allocates a fresh physical register;
 * the previous mapping of its architectural register is released
 * once the writer commits (a fixed pipeline-depth delay here).
 * Write-port availability at release time is modelled as a Bernoulli
 * draw with the paper's measured probabilities (92% INT / 86% FP) as
 * defaults.
 */

#ifndef PENELOPE_REGFILE_DRIVER_HH
#define PENELOPE_REGFILE_DRIVER_HH

#include <cstddef>
#include <cstdint>

#include "common/ring.hh"
#include "common/rng.hh"
#include "regfile.hh"
#include "trace/generator.hh"

namespace penelope {

/** Replay parameters. */
struct RegReplayConfig
{
    /** Drive the FP (true) or integer (false) register file. */
    bool fp = false;

    /** Cycles between an overwrite and the release of the previous
     *  physical register (rename-to-commit depth). */
    unsigned commitDelay = 80;

    /** Probability a write port is free at release time. */
    double portFreeProb = 0.92;

    std::uint64_t seed = 0x4e60f11e;
};

/** Outcome counters of a replay. */
struct RegReplayResult
{
    Cycle cycles = 0;
    std::uint64_t writes = 0;
    std::uint64_t releases = 0;
    std::uint64_t forcedReleases = 0; ///< free-list pressure events
    double occupancy = 0.0;
    double freeFraction = 0.0;
};

/**
 * Replays a uop stream against a RegisterFile (one cycle per uop).
 *
 * The uop source is any type with a `Uop next()` member: the
 * workload's TraceGenerator, or an adversarial source such as
 * AttackTraceGenerator (trace/attack.hh) -- the same source
 * contract as SchedulerReplay, so the wearout-attack experiments
 * drive both structures with one generator.
 */
class RegFileReplay
{
  public:
    RegFileReplay(RegisterFile &rf, const RegReplayConfig &config);

    /** Replay the next @p n uops of the stream (one cycle each). */
    void feed(const Uop *uops, std::size_t n);

    /** Counters of everything fed so far; the clock is the cycle
     *  after the last uop. */
    RegReplayResult result() const;

    /** Consume @p num_uops uops from @p gen; returns result(). */
    template <class Gen>
    RegReplayResult
    run(Gen &gen, std::size_t num_uops)
    {
        streamChunks(gen, num_uops,
                     [&](const Uop *uops, std::size_t n) {
                         feed(uops, n);
                     });
        return result();
    }

  private:
    struct PendingRelease
    {
        Cycle due;
        unsigned entry;
    };

    void drainReleases(Cycle now, bool force);

    RegisterFile &rf_;
    RegReplayConfig config_;
    Rng rng_;
    std::vector<int> archMap_;

    /** Commit-delay window of not-yet-released physical registers
     *  (bounded by the register count: each pending slot names a
     *  distinct busy entry), kept in a flat ring -- it is pushed
     *  and polled every simulated cycle. */
    RingQueue<PendingRelease> pending_;
    RegReplayResult result_;

    /** Persistent clock: successive feed() and run() calls
     *  continue time so a register file can accumulate aging across
     *  many traces. */
    Cycle clock_ = 0;
};

/**
 * A register file with its own replay: the unit a streamed trace
 * pass feeds (Engine::streamCached).  Callers add the result() that
 * packs the shard they cache.  Not copyable: the replay refers to
 * the register file.
 */
struct RegFileRun
{
    RegFileRun(const RegFileConfig &rf_config, bool isv,
               const RegReplayConfig &replay_config)
        : rf(rf_config), replay(rf, replay_config)
    {
        rf.enableIsv(isv); // ISV acts at release only
    }

    RegFileRun(const RegFileRun &) = delete;
    RegFileRun &operator=(const RegFileRun &) = delete;

    void feed(const Uop *uops, std::size_t n) { replay.feed(uops, n); }

    RegisterFile rf;
    RegFileReplay replay;
};

} // namespace penelope

#endif // PENELOPE_REGFILE_DRIVER_HH
