#include "rng.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace penelope {

namespace {

/** SplitMix64 step, used only to expand seeds. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t stream)
{
    std::uint64_t x = base ^ (stream + 1) * 0x9e3779b97f4a7c15ULL;
    return splitMix64(x);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
    // xoshiro must not start from the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9e3779b97f4a7c15ULL;
}

namespace {

/** The original geometric quantile computation, verbatim, applied
 *  to the 53-bit draw m (u = m * 2^-53): this is the single source
 *  of truth the threshold tables are built from and verified
 *  against, and the fallback for the deep tail. */
std::uint64_t
geomFromDraw(std::uint64_t m, double log_q)
{
    const double u = static_cast<double>(m) * 0x1.0p-53;
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / log_q));
}

/** Quantile thresholds per table (covers all but the q^48 deep
 *  tail for the hot p values). */
constexpr unsigned kGeomThresholds = 48;

/** Bucket answer sentinel: m at or below the last threshold (the
 *  deep tail, computed directly). */
constexpr std::uint8_t kGeomTail = 0xff;

/** The table lookup of GeomTable::draw, replicated so the bucket
 *  index can be precomputed from it; the two must stay in
 *  lockstep.  @p tail is returned for the deep-tail region
 *  (m <= thresh[count - 1]) that draw() computes directly. */
std::uint8_t
geomTableAnswer(const std::uint64_t *thresh, unsigned count,
                std::uint64_t m, std::uint8_t tail)
{
    if (m > thresh[0])
        return 0;
    if (m <= thresh[count - 1])
        return tail;
    unsigned lo = 0;
    unsigned hi = count - 1;
    while (hi - lo > 1) {
        const unsigned mid = (lo + hi) / 2;
        if (m <= thresh[mid])
            lo = mid;
        else
            hi = mid;
    }
    return static_cast<std::uint8_t>(lo + 1);
}

} // namespace

/**
 * log1p(-p), plus a threshold table that maps the 53-bit uniform
 * draw m (u = m * 2^-53) straight to the result without log/floor.
 * thresh[k-1] is the largest m whose result is >= k under the
 * *original* floor(log(u)/logQ) expression; the boundaries are
 * located with that exact expression and verified over a +-64 m
 * window, so table answers are bit-identical to the direct
 * computation (usable stays false, and every draw takes the direct
 * path, if verification ever fails).
 */
struct Rng::GeomTable
{
    explicit GeomTable(double p);

    /** The registry's table for @p p, built on first request. */
    static const GeomTable &shared(double p);

    /** The geometric result for the nonzero 53-bit draw @p m. */
    std::uint64_t draw(std::uint64_t m) const;

    double logQ;
    bool usable = false;
    std::uint64_t thresh[kGeomThresholds];

    /** Direct index on the top 8 bits of m: the table answers at
     *  the bucket's two ends (the quantile is non-increasing in m).
     *  Equal ends -- the common case, thresholds are geometrically
     *  spaced -- resolve the draw with one load instead of the
     *  bisection. */
    std::uint8_t bucketLo[256];
    std::uint8_t bucketHi[256];
};

Rng::GeomTable::GeomTable(double p) : logQ(std::log1p(-p))
{
    // thresh[k-1] = largest m in [1, 2^53) with geomFromDraw >= k.
    // The quantile is non-increasing in m up to log()'s sub-ulp
    // rounding, so bisect for each boundary and then settle it by
    // exhaustive scan of a +-64 window (faithful rounding can blur
    // a boundary by at most a couple of grid points).  Any
    // inconsistency leaves the table unusable -- the direct path is
    // always available and bit-identical.
    constexpr std::uint64_t max_m = (std::uint64_t(1) << 53) - 1;
    const double log_q = logQ;
    std::uint64_t prev = max_m;
    for (unsigned k = 1; k <= kGeomThresholds; ++k) {
        if (geomFromDraw(1, log_q) < k) {
            // Even the smallest u stays below k: no draw reaches
            // this or any later quantile.
            for (unsigned j = k; j <= kGeomThresholds; ++j)
                thresh[j - 1] = 0;
            break;
        }
        std::uint64_t lo = 1;
        std::uint64_t hi = prev;
        if (geomFromDraw(hi, log_q) >= k) {
            thresh[k - 1] = hi;
            continue;
        }
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (geomFromDraw(mid, log_q) >= k)
                lo = mid;
            else
                hi = mid;
        }
        const std::uint64_t wlo = lo > 64 ? lo - 64 : 1;
        const std::uint64_t whi = std::min(lo + 64, max_m);
        std::uint64_t best = 0;
        for (std::uint64_t m = wlo; m <= whi; ++m) {
            if (geomFromDraw(m, log_q) >= k)
                best = m;
        }
        if (best == 0 || best == whi || geomFromDraw(wlo, log_q) < k)
            return;
        thresh[k - 1] = best;
        prev = best;
    }
    // Bucket index on the top 8 bits of m: store the table answer
    // at both ends of each bucket.  The answer is non-increasing in
    // m, so equal ends mean every m inside resolves to that value
    // and the draw-time bisection can be skipped.  Derived purely
    // from thresh, so the answers are the table's own.
    constexpr std::uint64_t bucket_span = std::uint64_t(1) << 45;
    for (unsigned b = 0; b < 256; ++b) {
        const std::uint64_t m_lo =
            b == 0 ? 1 : std::uint64_t(b) * bucket_span;
        const std::uint64_t m_hi =
            (std::uint64_t(b) + 1) * bucket_span - 1;
        bucketLo[b] =
            geomTableAnswer(thresh, kGeomThresholds, m_hi, kGeomTail);
        bucketHi[b] =
            geomTableAnswer(thresh, kGeomThresholds, m_lo, kGeomTail);
    }
    usable = true;
}

const Rng::GeomTable &
Rng::GeomTable::shared(double p)
{
    // Deliberately never freed: Rngs on any thread may hold table
    // pointers until the process exits.  Keyed on p's bits, so the
    // same double always finds the same table.
    struct Registry
    {
        std::mutex mutex;
        std::map<std::uint64_t, std::unique_ptr<const GeomTable>> tables;
    };
    static Registry *const registry = new Registry;
    const std::lock_guard<std::mutex> lock(registry->mutex);
    std::unique_ptr<const GeomTable> &table =
        registry->tables[std::bit_cast<std::uint64_t>(p)];
    if (!table)
        table = std::make_unique<const GeomTable>(p);
    return *table;
}

std::uint64_t
Rng::GeomTable::draw(std::uint64_t m) const
{
    if (!usable)
        return geomFromDraw(m, logQ);
    // Bucket fast path: when both ends of m's top-8-bit bucket
    // agree (and it is not the deep tail), that is the answer.
    const unsigned b = static_cast<unsigned>(m >> 45);
    const std::uint8_t kq = bucketLo[b];
    if (kq == bucketHi[b] && kq != kGeomTail)
        return kq;
    if (m > thresh[0])
        return 0;
    if (m <= thresh[kGeomThresholds - 1])
        return geomFromDraw(m, logQ); // deep tail
    // Largest k with m <= thresh[k-1]; thresh is descending.
    unsigned lo = 0;
    unsigned hi = kGeomThresholds - 1;
    while (hi - lo > 1) {
        const unsigned mid = (lo + hi) / 2;
        if (m <= thresh[mid])
            lo = mid;
        else
            hi = mid;
    }
    return lo + 1;
}

const Rng::GeomTable &
Rng::geomTable(double p)
{
    for (const GeomSlot &slot : geomSlots_) {
        if (slot.p == p)
            return *slot.table;
    }
    GeomSlot &slot = geomSlots_[geomNext_];
    geomNext_ = static_cast<std::uint8_t>((geomNext_ + 1) % kGeomSlots);
    slot.table = &GeomTable::shared(p);
    slot.p = p;
    return *slot.table;
}

std::uint64_t
Rng::nextGeometric(double p)
{
    assert(p > 0.0 && p <= 1.0);
    if (p >= 1.0)
        return 0;
    // The table depends only on p, and every hot caller draws with
    // a fixed p (mean residence / dependency distance / run
    // length), so the lookup is a scan of the memo slots.
    const GeomTable &table = geomTable(p);
    std::uint64_t m = 0;
    do {
        m = (*this)() >> 11; // the 53 mantissa bits of nextDouble()
    } while (m == 0);
    return table.draw(m);
}

ZipfTable::ZipfTable(std::uint64_t n, double s)
{
    assert(n > 0);
    assert(n <= ~std::uint32_t(0));
    cdf_.resize(n);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
    // Bucket index: B a power of two so u*B and j/B are exact (no
    // rounding), keeping the bucketed search bit-identical to the
    // full-range one.
    unsigned b = 1024;
    while (b > 4 * n)
        b >>= 1;
    numBuckets_ = b;
    bucketLo_.resize(b + 1);
    std::uint64_t i = 0;
    for (unsigned j = 0; j < b; ++j) {
        const double threshold =
            static_cast<double>(j) / static_cast<double>(b);
        while (i < n - 1 && cdf_[i] < threshold)
            ++i;
        bucketLo_[j] = static_cast<std::uint32_t>(i);
    }
    bucketLo_[b] = static_cast<std::uint32_t>(n - 1);
}

std::uint64_t
ZipfTable::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    // u in [j/B, (j+1)/B) exactly, so the first rank with
    // cdf >= u lies in [bucketLo_[j], bucketLo_[j+1]]: the same
    // index the full-range search would find.
    const unsigned j = static_cast<unsigned>(
        u * static_cast<double>(numBuckets_));
    std::uint64_t lo = bucketLo_[j];
    std::uint64_t hi = bucketLo_[j + 1];
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace penelope
