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
 *
 * One replay drives one or more register files of the same geometry
 * on one timeline.  None of the timeline depends on ISV: the rename
 * map, the commit-delay window and the port draw (taken whether or
 * not the port is free) belong to the replay, and every file's FIFO
 * free list hands out the same entry, because ISV acts only on the
 * value a release leaves behind.  So a file driven alongside others
 * ends bit-identical to one replayed alone, and a RegFilePass
 * replays every arm of a trace -- ISV off and on -- on one
 * timeline.
 */

#ifndef PENELOPE_REGFILE_DRIVER_HH
#define PENELOPE_REGFILE_DRIVER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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
    /** A replay with no register file yet: attach() them before the
     *  first feed(). */
    explicit RegFileReplay(const RegReplayConfig &config);

    /** The one-file replay: attach(@p rf). */
    RegFileReplay(RegisterFile &rf, const RegReplayConfig &config);

    /** Drive @p rf too, mapping the architectural registers into
     *  it.  Only before the first feed(); every attached file has
     *  the same entry count and width. */
    void attach(RegisterFile &rf);

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

    /** Attached files; the first answers occupancy queries (every
     *  one sees the same allocations and releases). */
    std::vector<RegisterFile *> files_;
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

/** Per-trace outcome of one register-file arm: the unit the
 *  Figure-6 runner caches. */
struct RegFileShard
{
    BitBiasTracker bias{1};
    double freeFraction = 0.0;
    IsvStats isv;
};

/**
 * Register files of one geometry on one replay timeline: the pass
 * that computes the arms of one trace in one replay (the unit
 * Engine::streamCached feeds).
 */
class RegFilePass
{
  public:
    /** One @p rf_config file per entry of @p isv, in order, with ISV
     *  as the entry says. */
    RegFilePass(const RegReplayConfig &config,
                const RegFileConfig &rf_config,
                const std::vector<bool> &isv)
        : replay_(config)
    {
        for (const bool on : isv) {
            files_.push_back(std::make_unique<RegisterFile>(rf_config));
            files_.back()->enableIsv(on); // ISV acts at release only
            replay_.attach(*files_.back());
        }
    }

    void feed(const Uop *uops, std::size_t n) { replay_.feed(uops, n); }

    /** The shared replay's counters (the same for every arm). */
    RegReplayResult replayResult() const { return replay_.result(); }

    /** Each arm's shard at the end of the stream, in arm order. */
    std::vector<RegFileShard>
    results()
    {
        const RegReplayResult r = replay_.result();
        std::vector<RegFileShard> out;
        for (const auto &rf : files_)
            out.push_back(
                {rf->finalizeBias(r.cycles), r.freeFraction,
                 rf->isvStats()});
        return out;
    }

  private:
    RegFileReplay replay_;
    std::vector<std::unique_ptr<RegisterFile>> files_;
};

} // namespace penelope

#endif // PENELOPE_REGFILE_DRIVER_HH
