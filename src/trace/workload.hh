/**
 * @file
 * The 531-trace workload set (paper Table 1).
 *
 * Each trace has a deterministic seed derived from a base seed and
 * its (suite, index) identity, so experiments are reproducible and
 * traces can be regenerated lazily instead of being held in memory.
 */

#ifndef PENELOPE_TRACE_WORKLOAD_HH
#define PENELOPE_TRACE_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "generator.hh"

namespace penelope {

/**
 * Enumerates the full Table-1 workload and materialises traces on
 * demand.
 */
class WorkloadSet
{
  public:
    explicit WorkloadSet(std::uint64_t base_seed = 0x50454e454c4f50ULL);

    /** Number of traces (531 with the paper's Table 1). */
    unsigned size() const { return specs_.size(); }

    /** Identity of trace @p index. */
    const TraceSpec &spec(unsigned index) const;

    /** All specs belonging to one suite. */
    std::vector<unsigned> indicesForSuite(SuiteId id) const;

    /** Materialise trace @p index with @p num_uops uops. */
    Trace generate(unsigned index, std::size_t num_uops) const;

    /** A generator for streaming consumption of trace @p index. */
    TraceGenerator generator(unsigned index) const;

    /** Trace @p index without its address stream (Uop::addr stays
     *  0; every other field equals generator()'s): the source for
     *  replays that never read addresses -- the scheduler and
     *  register file.  Cache and pipeline models need generator(). */
    TraceGenerator replayGenerator(unsigned index) const;

    /**
     * Deterministic pseudo-random subset of @p count trace indices
     * (used e.g.\ for the paper's 100-trace profiling set).
     */
    std::vector<unsigned> sampleIndices(unsigned count,
                                        std::uint64_t seed) const;

    /** Complement of a subset (e.g.\ the 431 evaluation traces). */
    std::vector<unsigned>
    complement(const std::vector<unsigned> &subset) const;

    /** One representative (first) trace index per suite. */
    std::vector<unsigned> firstPerSuite() const;

    /** Every n-th trace (cheap proportional subsample). */
    std::vector<unsigned> strided(unsigned stride) const;

  private:
    std::uint64_t baseSeed_;
    std::vector<TraceSpec> specs_;
};

} // namespace penelope

#endif // PENELOPE_TRACE_WORKLOAD_HH
