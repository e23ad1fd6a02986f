/**
 * @file
 * Deterministic pseudo-random number generation for all simulators.
 *
 * Every stochastic component in Penelope draws from an explicitly
 * seeded Rng so that experiments are exactly reproducible.  The
 * generator is xoshiro256** seeded through SplitMix64, which is fast,
 * has a 256-bit state and passes BigCrush.
 *
 * An Rng is small (about 100 bytes) because nextGeometric's quantile
 * tables are not part of it: each is a pure function of p, built once
 * per process in a registry that is never freed, locked only on an
 * Rng's first draw with a given p, and shared by pointer.
 */

#ifndef PENELOPE_COMMON_RNG_HH
#define PENELOPE_COMMON_RNG_HH

#include <cassert>
#include <cstdint>
#include <vector>

namespace penelope {

/**
 * Derive a statistically independent seed for stream @p stream from
 * @p base (SplitMix64 mix).  The parallel experiment engine seeds
 * each per-trace simulation with mixSeed(config seed, trace index)
 * so results do not depend on how traces are scheduled onto
 * workers.
 */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t stream);

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Satisfies the UniformRandomBitGenerator named requirement so it can
 * also be plugged into <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit draw.  Inline: the replay kernels draw
     *  several times per simulated uop. */
    std::uint64_t
    operator()()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) ; bound must be > 0. */
    std::uint64_t
    nextInt(std::uint64_t bound)
    {
        assert(bound > 0);
        // Power-of-two bounds (opcode pools, register counts, line
        // offsets) take a division-free path: the rejection
        // threshold below is exactly 0 and r % bound == r & (bound
        // - 1), so the draw is bit-identical to the general path.
        // bound == 0 must NOT match (it would silently return a
        // full-range draw); it falls through to the general path,
        // which traps on the division like the pre-fast-path code.
        if (bound != 0 && (bound & (bound - 1)) == 0)
            return (*this)() & (bound - 1);
        // Lemire-style rejection-free-ish bounded draw; the modulo
        // bias is negligible for simulation purposes but we still
        // reject the tail.
        const std::uint64_t threshold =
            (~bound + 1) % bound; // (2^64-b) mod b
        for (;;) {
            std::uint64_t r = (*this)();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 random mantissa bits.
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of returning true. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /**
     * Geometric draw: number of failures before first success with
     * per-trial success probability p (p in (0, 1]).
     */
    std::uint64_t nextGeometric(double p);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];

    /** Next geomSlots_ entry to replace (round robin). */
    std::uint8_t geomNext_ = 0;

    /**
     * The quantile table of one p for nextGeometric (defined in
     * rng.cc).  A pure function of p, so one immutable copy serves
     * every Rng: a process-wide registry builds each distinct p's
     * table once, under a mutex, and never frees it.  Its size is
     * bounded by the p values in the tree, each a constant of a
     * suite profile or a model parameter: `penelope_bench --all`
     * builds 18 tables of about 0.9 KB.  Draws through a table are
     * bit-identical to the direct floor(log(u) / log1p(-p))
     * computation.
     */
    struct GeomTable;

    /** Per-Rng memo of the registry lookups: only the first draw
     *  with a p not held here takes the registry lock.  Four slots
     *  hold every caller's hot p set (two values at most today). */
    struct GeomSlot
    {
        double p = -1.0;
        const GeomTable *table = nullptr;
    };
    static constexpr unsigned kGeomSlots = 4;

    const GeomTable &geomTable(double p);

    GeomSlot geomSlots_[kGeomSlots];
};

/**
 * Precomputed Zipf sampler over [0, n) with exponent s.
 *
 * Building the CDF is O(n); each draw is O(log n).  Used by the trace
 * generator for cache-line popularity distributions.
 */
class ZipfTable
{
  public:
    ZipfTable(std::uint64_t n, double s);

    /** Number of ranks. */
    std::uint64_t size() const { return cdf_.size(); }

    /** Draw a rank using the supplied Rng. */
    std::uint64_t sample(Rng &rng) const;

  private:
    /**
     * Bucket index over the CDF: bucket j brackets the ranks whose
     * CDF values straddle [j/B, (j+1)/B), so sample() binary
     * searches a handful of entries instead of the whole table.  B
     * is a power of two, so u*B and j/B are exact and the
     * restricted search returns the identical rank the full-range
     * search would.  bucketLo_[j] = first rank with cdf >= j/B
     * (clamped to n-1); bucketLo_[numBuckets_] = n-1.
     */
    unsigned numBuckets_;
    std::vector<std::uint32_t> bucketLo_;
    std::vector<double> cdf_;
};

} // namespace penelope

#endif // PENELOPE_COMMON_RNG_HH
