/**
 * @file
 * Set-associative cache model with NBTI inversion support
 * (Section 3.2.1 / 4.6).
 *
 * The model evaluates the performance of the inversion mechanisms:
 * hit/miss statistics feeding the Table-3 experiment, and on demand
 * the recency position of a hit (hitRecency) for the pipeline's MRU
 * survey.
 *
 * Each cache owns one InversionMechanism (inversion.hh), chosen by
 * the MechanismParams it is built with: tick() steps it, a hit on a
 * shadow-marked line reports to it, and it acts through the
 * inversion manipulators below.
 *
 * Inversion state: a line is either valid (holding program data) or
 * *inverted* -- invalid for lookups, its cells holding the bitwise
 * complement of a sampled value so both PMOS devices of every cell
 * age evenly.  The valid/state bits encode valid+non-inverted or
 * invalid+inverted, exactly as the paper describes.
 *
 * Layout: the state a lookup reads lives in two dense arrays indexed
 * set * ways + way -- the key (the line number of a valid line, the
 * sentinel ~0 otherwise) and the last-use cycle -- so a lookup is one
 * compare per usable way.  The cold per-line state (inverted and
 * shadow bits) stays in Line.  An inverted line is
 * never valid (inverted => key == ~0), so "valid, not inverted and
 * holding line_no" is exactly key == line_no; lines are at least 2
 * bytes, so no line number equals the sentinel.
 *
 * Recency is the last-use *cycle*, not an access count: two accesses
 * at one `now` tie, and the LRU scan takes the first tied way in
 * scan order.  So even a mechanism-free cache's hits depend on where
 * its timeline puts equal stamps, not on address order alone.  The
 * Table-3 miss streams (timing.hh) stamp on a baseline's timeline
 * for this reason; stamping them by access count moves the DL0
 * 8-way 8 KB baselines of trace 132.
 */

#ifndef PENELOPE_CACHE_CACHE_HH
#define PENELOPE_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "inversion.hh"

namespace penelope {

/** Static cache geometry and behaviour. */
struct CacheConfig
{
    std::string name = "DL0";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;

    /** Probability a spare write port is available for an inversion
     *  update on any given cycle (Section 3.2: existing ports are
     *  reused; updates that find no port are simply delayed). */
    double writePortFreeProb = 0.9;

    std::uint32_t numSets() const
    {
        return sizeBytes / (ways * lineBytes);
    }
    std::uint32_t numLines() const { return numSets() * ways; }

    /** Convenience: TLB geometry expressed as a cache (one line per
     *  page-table entry). */
    static CacheConfig tlb(std::uint32_t entries,
                           std::uint32_t ways = 8,
                           std::uint32_t page_bytes = 4096);
};

/** Result of one cache access. */
struct AccessResult
{
    bool hit = false;

    /** The replaced victim was an inverted line (on miss). */
    bool consumedInvertedLine = false;

    /** Hit landed on a shadow-marked line (dynamic-mechanism test
     *  phase induced extra miss). */
    bool shadowExtraMiss = false;

    /** On a hit: the line's set and way and its last use before
     *  this access (what Cache::hitRecency ranks). */
    unsigned set = 0;
    unsigned way = 0;
    Cycle prevLastUse = 0;
};

/**
 * The cache proper.  Addresses are byte addresses; tags store the
 * full line number so set remapping (set/way inversion) can never
 * produce false hits.
 */
class Cache
{
  public:
    /** A cache running @p mechanism, installed at cycle 0. */
    explicit Cache(const CacheConfig &config,
                   const MechanismParams &mechanism = MechanismParams());

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    const InversionMechanism &mechanism() const { return mechanism_; }

    /** Look up @p addr; allocate on miss. */
    AccessResult access(Addr addr, Cycle now);

    /** Advance the mechanism by one cycle.  Inline: the timing
     *  model ticks every cache once per simulated uop. */
    void
    tick(Cycle now)
    {
        if (mechanism_.kind() != MechanismKind::None)
            mechanism_.onCycle(*this, now);
    }

    /** @name Inversion manipulators (used by the mechanism) */
    /// @{
    /** Invalidate and invert a specific line; returns false if the
     *  line was already inverted. */
    bool invertLine(unsigned set, unsigned way, Cycle now);

    /** Invert the LRU valid line of @p set; false if none valid. */
    bool invertLruLineOfSet(unsigned set, Cycle now);

    /** Restrict lookups/allocation to the @p count sets (@p sets)
     *  or ways from @p first on, wrapping; the lines outside the
     *  window become inverted. */
    void setUsableWindow(bool sets, unsigned first, unsigned count,
                         Cycle now);

    /** Mark/unmark a line as shadow-inverted (test phase). */
    void setShadow(unsigned set, unsigned way, bool shadow);

    /** Clear all shadow marks. */
    void clearShadows();

    /** Shadow analogue of invertLruLineOfSet. */
    bool shadowMarkLruLineOfSet(unsigned set);
    /// @}

    /** @name Introspection */
    /// @{
    const CacheConfig &config() const { return config_; }
    unsigned numSets() const { return numSets_; }
    unsigned numWays() const { return config_.ways; }
    unsigned numLines() const { return numSets_ * config_.ways; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    double missRate() const;

    /**
     * Recency position (0 = MRU) of the line @p hit found, as it
     * stood before that access: the valid ways other than the hit
     * way used after the line's previous use.  Exact only until the
     * next access or inversion -- a hit changes no state but the hit
     * way's last use (and shadow bits).  Section 3.2.1's MRU
     * histogram; access() itself does not rank hits.
     */
    unsigned hitRecency(const AccessResult &hit) const;

    /** Number of currently inverted lines. */
    unsigned invertedCount() const { return invertedCount_; }
    unsigned shadowCount() const { return shadowCount_; }

    /** Fraction of lines currently inverted. */
    double invertRatio() const;

    /** Time-average of the invert ratio since construction. */
    double averageInvertRatio(Cycle now) const;

    bool lineValid(unsigned set, unsigned way) const;
    bool lineInverted(unsigned set, unsigned way) const;

    /** Deterministic RNG used for random picks (seeded per cache). */
    Rng &rng() { return rng_; }
    /// @}

  private:
    /** key_ of an invalid (plain-invalid or inverted) line. */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t(0);

    /** The cold per-line state; the key and last use are in key_
     *  and lastUse_. */
    struct Line
    {
        bool inverted = false;
        bool shadow = false;
    };

    std::size_t
    slot(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * config_.ways + way;
    }

    Line &
    lineAt(unsigned set, unsigned way)
    {
        return lines_[slot(set, way)];
    }
    const Line &
    lineAt(unsigned set, unsigned way) const
    {
        return lines_[slot(set, way)];
    }

    /** Map a line number to its (possibly remapped) set. */
    unsigned indexOf(std::uint64_t line_no) const;

    /** The way after @p way in scan order (wraps to way 0). */
    unsigned
    nextWay(unsigned way) const
    {
        return ++way == config_.ways ? 0 : way;
    }

    /** Pick a victim way among usable ways of @p set: an invalid
     *  (or inverted) way first, else the LRU one. */
    unsigned pickVictim(unsigned set) const;

    /** LRU valid non-inverted way of @p set, or -1. */
    int lruValidWay(unsigned set, bool skip_shadow) const;

    /** The way of @p set an inversion (or, @p skip_shadow, a shadow
     *  mark) takes: a plain-invalid way first, else the LRU valid
     *  one; ways already shadow-marked are skipped with
     *  @p skip_shadow.  -1 if none. */
    int inversionTarget(unsigned set, bool skip_shadow) const;

    CacheConfig config_;
    unsigned numSets_;
    unsigned lineShift_; ///< log2(lineBytes)
    std::vector<std::uint64_t> key_;
    std::vector<Cycle> lastUse_;
    std::vector<Line> lines_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    unsigned invertedCount_ = 0;
    unsigned shadowCount_ = 0;

    /** Rotating usable windows (set/way fixed mechanisms). */
    unsigned usableSetFirst_ = 0;
    unsigned usableSetCount_;
    /** usableSetCount_ is a power of two (every catalog geometry,
     *  SetFixed50's half window included): indexOf masks instead of
     *  taking the modulo. */
    bool usableSetsPow2_;
    unsigned usableWayFirst_ = 0;
    unsigned usableWayCount_;

    /** Invert-ratio time integral for averageInvertRatio(). */
    double invertRatioIntegral_ = 0.0;
    Cycle lastRatioUpdate_ = 0;

    Rng rng_;
    InversionMechanism mechanism_;
};

} // namespace penelope

#endif // PENELOPE_CACHE_CACHE_HH
