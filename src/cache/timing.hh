/**
 * @file
 * Memory-hierarchy timing simulation for the Table-3 experiment.
 *
 * Performance is modelled additively: every uop contributes a base
 * CPI; DL0 and DTLB misses add fixed penalties.  The performance
 * *loss* of an inversion mechanism is the relative cycle increase
 * against an identically-driven baseline run, which is exactly the
 * quantity Table 3 reports (the paper's absolute CPI depends on its
 * proprietary core model; the additive model preserves orderings and
 * magnitudes of the deltas).
 *
 * A sim's DL0 and DTLB each run the mechanism its MechanismKind
 * names (inversion.hh), with the parameters mechanismParams derives
 * from the kind, the geometry and the time scale: the one place the
 * production mechanism parameters come from.
 *
 * One pass per trace: simulateMemLosses() prices a whole list of
 * MemLossQuery configurations through Engine::streamCached, each
 * query a slot with its own key, and the engine hands a trace's
 * missing queries to one pass.  In it they share *miss streams*:
 * one mechanism-free simulation of each distinct DL0 and each
 * distinct DTLB geometry, recording a miss bit per uop of the
 * current chunk (MemTimingSim::readMisses).  A query's mechanism
 * sim simulates only its mechanised structure(s) and reads the other
 * structure's misses from its stream; one feedLockstep() per chunk
 * steps every sim of the trace uop by uop.  Streams are built in
 * query order by the queries' baselines, mechanism-free sims of
 * their (DL0, DTLB) pairs: a baseline simulates whichever of its pair has
 * no stream yet (both, or one while reading its partner's stream),
 * so a stream stamps LRU recency on the timeline of the first
 * baseline that names it, and that baseline's cycle count comes at
 * no extra cost.  A pair whose streams both came from other
 * baselines gets a baseline that only reads them.
 *
 * Recency is stamped in cycles (cache.hh), so a stream reproduces a
 * mechanism sim's own mechanism-free structure only where their LRU
 * ties break alike.  Penalties are whole cycles, so every timeline
 * of a trace shares the baseline's fractional cycle pattern, and its
 * ties wherever neither has a miss.  With baseline stamps, each
 * MemLossSample has matched two independent MemTimingSim::run()
 * calls bit for bit on every list tested (the catalog's own, pinned
 * in tests/test_cache.cc and by the golden store digests), where
 * access-count stamps do not.  Per-query cache keys and payloads are
 * those of a one-query call.
 */

#ifndef PENELOPE_CACHE_TIMING_HH
#define PENELOPE_CACHE_TIMING_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cache.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace penelope {

class ThreadPool;
class ResultCache;

/** Additive timing-model parameters. */
struct MemTimingParams
{
    double baseCpi = 0.65;          ///< non-miss CPI per uop
    unsigned dl0MissPenalty = 12;   ///< cycles per DL0 miss (L2 hit)
    unsigned dtlbMissPenalty = 30;  ///< cycles per DTLB miss (walk)
};

/**
 * The production parameters of @p kind on a cache of @p config: the
 * ratio its name states, and for LineDynamic the paper's
 * per-geometry extra-miss threshold (@p is_tlb selects the DTLB
 * table).  Time constants are scaled by @p time_scale (1.0 = the
 * paper's 200K/200K/10M cycles) so short synthetic traces exercise
 * the full warmup/test/decide machinery.
 */
MechanismParams mechanismParams(MechanismKind kind,
                                const CacheConfig &config, bool is_tlb,
                                double time_scale = 1.0);

/** Result of one trace run through the memory hierarchy. */
struct MemSimResult
{
    std::uint64_t uops = 0;
    std::uint64_t memOps = 0;
    std::uint64_t dl0Hits = 0;
    std::uint64_t dl0Misses = 0;
    std::uint64_t dtlbHits = 0;
    std::uint64_t dtlbMisses = 0;
    double cycles = 0.0;
    double dl0AvgInvertRatio = 0.0;
    double dtlbAvgInvertRatio = 0.0;

    double cpi() const
    {
        return uops ? cycles / static_cast<double>(uops) : 0.0;
    }
};

/**
 * One DL0 + DTLB pair driven by a uop stream.  The stream may
 * arrive in any number of feed() calls; the simulated state (cycle
 * count included) carries across them.
 */
class MemTimingSim
{
  public:
    MemTimingSim(const CacheConfig &dl0_config,
                 const CacheConfig &dtlb_config,
                 const MemTimingParams &params,
                 MechanismKind dl0_mechanism,
                 MechanismKind dtlb_mechanism,
                 double time_scale = 1.0);

    /** Simulate the next @p n uops of the stream. */
    void feed(const Uop *uops, std::size_t n);

    /**
     * feed() every sim of @p sims the same @p n uops, uop by uop in
     * lockstep: each sim ends exactly as after its own feed(), and a
     * sim that reads another's misses (readMisses) must come after
     * it.  In lockstep a uop's memory-or-not branch repeats across
     * the sims, so it is mispredicted once per uop, not once per sim
     * (about 10 ns/uop per sim on the catalog traces).
     */
    static void feedLockstep(std::span<MemTimingSim *const> sims,
                             const Uop *uops, std::size_t n);

    /** Statistics of everything fed so far. */
    MemSimResult result() const;

    /**
     * Read miss streams within one trace pass (simulateMemLosses):
     * a structure whose source is non-null is no longer simulated;
     * uop i's miss on it is the source's bit for uop i of the same
     * chunk, so the source is fed each chunk first (or earlier in
     * one feedLockstep()), and from then on records each uop's
     * misses on both its structures.  A read structure counts no
     * hits or misses and never inverts.
     */
    void readMisses(MemTimingSim *dl0_source, MemTimingSim *dtlb_source);

    /** Feed @p num_uops uops from @p gen; returns result(). */
    template <class Gen>
    MemSimResult
    run(Gen &gen, std::size_t num_uops)
    {
        streamChunks(gen, num_uops,
                     [&](const Uop *uops, std::size_t n) {
                         feed(uops, n);
                     });
        return result();
    }

    Cache &dl0() { return dl0_; }
    Cache &dtlb() { return dtlb_; }

  private:
    /** Account a chunk of @p n uops and size its miss bits. */
    void beginChunk(std::size_t n);

    /** Simulate uop @p i of the chunk on cycle count @p cycles. */
    void step(const Uop &uop, std::size_t i, double &cycles);

    MemTimingParams params_;
    Cache dl0_;
    Cache dtlb_;
    double cycles_ = 0.0;
    std::uint64_t uops_ = 0;
    std::uint64_t memOps_ = 0;

    /** Miss streams (readMisses): where a structure's misses come
     *  from, whether another sim reads this one's, and the per-uop
     *  miss bits of the last chunk. */
    const MemTimingSim *dl0Source_ = nullptr;
    const MemTimingSim *dtlbSource_ = nullptr;
    bool record_ = false;
    std::vector<std::uint8_t> dl0Missed_;
    std::vector<std::uint8_t> dtlbMissed_;
};

/**
 * Per-trace outcome of one baseline-vs-mechanism pair of runs: the
 * unit the Table-3 folds consume and the result cache stores.  Both
 * invert ratios are carried so a query with mechanisms on both DL0
 * and DTLB can be folded for either structure (foldPerfLoss's
 * @p apply_to_dl0).  A DL0-only and a DTLB-only query never share
 * an entry: the key covers both mechanisms.
 */
struct MemLossSample
{
    double loss = 0.0;            ///< relative cycle increase
    double normalizedCycles = 1.0;
    double dl0InvertRatio = 0.0;
    double dtlbInvertRatio = 0.0;
};

/** Aggregated performance-loss statistics for Table 3. */
struct PerfLossStats
{
    double meanLoss = 0.0;        ///< average relative cycle increase
    double maxLoss = 0.0;
    double fracAbove5Pct = 0.0;   ///< traces losing > 5%
    double fracAbove10Pct = 0.0;  ///< traces losing > 10%
    double meanInvertRatio = 0.0; ///< time-averaged invert ratio
    unsigned traces = 0;
};

/**
 * One baseline-vs-mechanism configuration: the mechanism run uses
 * @p dl0Mechanism / @p dtlbMechanism, the baseline run the same
 * geometries with no mechanism.
 */
struct MemLossQuery
{
    CacheConfig dl0;
    CacheConfig dtlb = CacheConfig::tlb(128, 8);
    MechanismKind dl0Mechanism = MechanismKind::None;
    MechanismKind dtlbMechanism = MechanismKind::None;
};

/**
 * Price every query on every trace in one pass per trace (see the
 * file comment).  Returns the samples as [query][trace], traces in
 * @p trace_indices order.
 *
 * One Engine task per trace on @p jobs workers; each task owns its
 * streams and sims, so the result is bit-identical for any jobs
 * value.  With @p cache set, a task simulates only the queries that
 * missed (plus the streams of their geometries).  Equal queries
 * share one simulation.  Table 3's 29 queries thus simulate 39
 * structures per memory uop: 30 mechanised and 9 streams.
 */
std::vector<std::vector<MemLossSample>>
simulateMemLosses(const WorkloadSet &workload,
                  const std::vector<unsigned> &trace_indices,
                  std::size_t uops_per_trace,
                  const std::vector<MemLossQuery> &queries,
                  const MemTimingParams &params = MemTimingParams(),
                  double time_scale = 0.1, unsigned jobs = 1,
                  ThreadPool *pool = nullptr,
                  ResultCache *cache = nullptr);

/**
 * Fold one query's per-trace samples, in order, into Table-3
 * statistics; the invert ratio is the DL0's (@p apply_to_dl0) or
 * the DTLB's.
 */
PerfLossStats foldPerfLoss(const std::vector<MemLossSample> &samples,
                           bool apply_to_dl0);

/** Mean normalised cycles of one query's per-trace samples. */
double foldNormalizedCpi(const std::vector<MemLossSample> &samples);

} // namespace penelope

#endif // PENELOPE_CACHE_TIMING_HH
