#include "cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace penelope {

CacheConfig
CacheConfig::tlb(std::uint32_t entries, std::uint32_t ways,
                 std::uint32_t page_bytes)
{
    CacheConfig cfg;
    cfg.name = "DTLB";
    cfg.lineBytes = page_bytes;
    cfg.ways = std::min(ways, entries);
    cfg.sizeBytes = entries * page_bytes;
    return cfg;
}

Cache::Cache(const CacheConfig &config,
             const MechanismParams &mechanism)
    : config_(config),
      numSets_(config.numSets()),
      lineShift_(static_cast<unsigned>(
          std::countr_zero(config.lineBytes))),
      key_(static_cast<std::size_t>(config.numSets()) * config.ways,
           kNoLine),
      lastUse_(key_.size(), 0),
      lines_(key_.size()),
      usableSetCount_(config.numSets()),
      usableSetsPow2_(std::has_single_bit(config.numSets())),
      usableWayCount_(config.ways),
      rng_(0xcac4e + config.sizeBytes + config.ways),
      mechanism_(mechanism)
{
    assert(numSets_ >= 1);
    assert(config_.ways >= 1);
    assert(std::has_single_bit(config_.lineBytes));
    // Line numbers stay below 2^63, so none equals kNoLine.
    assert(config_.lineBytes >= 2);
    mechanism_.attach(*this);
}

unsigned
Cache::indexOf(std::uint64_t line_no) const
{
    // (usableSetFirst_ + line_no % usableSetCount_) % numSets_,
    // without a division on the catalog's power-of-two windows: the
    // sum is below 2 * numSets_, so one subtract wraps it.
    const unsigned offset = usableSetsPow2_
        ? static_cast<unsigned>(line_no & (usableSetCount_ - 1))
        : static_cast<unsigned>(line_no % usableSetCount_);
    const unsigned set = usableSetFirst_ + offset;
    return set >= numSets_ ? set - numSets_ : set;
}

double
Cache::missRate() const
{
    const std::uint64_t total = accesses();
    if (total == 0)
        return 0.0;
    return static_cast<double>(misses_) / static_cast<double>(total);
}

double
Cache::invertRatio() const
{
    return static_cast<double>(invertedCount_) /
        static_cast<double>(numLines());
}

double
Cache::averageInvertRatio(Cycle now) const
{
    const double pending = invertRatio() *
        static_cast<double>(now - lastRatioUpdate_);
    if (now == 0)
        return invertRatio();
    return (invertRatioIntegral_ + pending) /
        static_cast<double>(now);
}

unsigned
Cache::hitRecency(const AccessResult &hit) const
{
    assert(hit.hit);
    // Valid ways used after the line's previous use, less the hit
    // way itself (its last use is now the access time).
    const std::uint64_t *key = &key_[slot(hit.set, 0)];
    const Cycle *last_use = &lastUse_[slot(hit.set, 0)];
    const Cycle ref = hit.prevLastUse;
    unsigned pos = 0;
    for (unsigned w = 0; w < config_.ways; ++w)
        pos += unsigned(key[w] != kNoLine) & unsigned(last_use[w] > ref);
    return pos - unsigned(last_use[hit.way] > ref);
}

int
Cache::lruValidWay(unsigned set, bool skip_shadow) const
{
    int best = -1;
    Cycle best_use = ~Cycle(0);
    unsigned w = usableWayFirst_;
    for (unsigned i = 0; i < usableWayCount_; ++i, w = nextWay(w)) {
        const std::size_t at = slot(set, w);
        if (key_[at] == kNoLine)
            continue;
        if (skip_shadow && lines_[at].shadow)
            continue;
        if (lastUse_[at] < best_use) {
            best_use = lastUse_[at];
            best = static_cast<int>(w);
        }
    }
    return best;
}

unsigned
Cache::pickVictim(unsigned set) const
{
    // Invalid (including inverted) lines first: consuming an
    // inverted line is the designed refill path (Section 3.2.1).
    unsigned w = usableWayFirst_;
    for (unsigned i = 0; i < usableWayCount_; ++i, w = nextWay(w)) {
        if (key_[slot(set, w)] == kNoLine)
            return w;
    }
    const int lru = lruValidWay(set, false);
    assert(lru >= 0);
    return static_cast<unsigned>(lru);
}

AccessResult
Cache::access(Addr addr, Cycle now)
{
    const std::uint64_t line_no = addr >> lineShift_;
    const unsigned set = indexOf(line_no);

    AccessResult result;

    // Lookup in the usable ways: an inverted line is never valid,
    // so a key match is a valid, non-inverted line holding line_no.
    const std::uint64_t *key = &key_[slot(set, 0)];
    unsigned w = usableWayFirst_;
    for (unsigned i = 0; i < usableWayCount_; ++i, w = nextWay(w)) {
        if (key[w] != line_no)
            continue;
        const std::size_t at = slot(set, w);
        assert(!lines_[at].inverted);
        result.hit = true;
        result.set = set;
        result.way = w;
        result.prevLastUse = lastUse_[at];
        ++hits_;
        lastUse_[at] = now;
        if (shadowCount_ != 0 && lines_[at].shadow) {
            result.shadowExtraMiss = true;
            mechanism_.onShadowHit(*this, set, w);
        }
        return result;
    }

    // Miss: allocate.
    ++misses_;
    const unsigned victim = pickVictim(set);
    const std::size_t at = slot(set, victim);
    Line &line = lines_[at];
    if (line.inverted) {
        // Ratio bookkeeping before the state change.
        invertRatioIntegral_ += invertRatio() *
            static_cast<double>(now - lastRatioUpdate_);
        lastRatioUpdate_ = now;
        --invertedCount_;
        result.consumedInvertedLine = true;
    }
    if (line.shadow) {
        line.shadow = false;
        --shadowCount_;
    }
    key_[at] = line_no;
    line.inverted = false;
    lastUse_[at] = now;
    // Every fill draws once, discarding the value (it was the line's
    // data image): the mechanisms share this stream, and Table 3's
    // results depend on its position.
    (void)rng_();
    return result;
}

bool
Cache::invertLine(unsigned set, unsigned way, Cycle now)
{
    const std::size_t at = slot(set, way);
    Line &line = lines_[at];
    if (line.inverted) {
        assert(key_[at] == kNoLine);
        return false;
    }
    invertRatioIntegral_ += invertRatio() *
        static_cast<double>(now - lastRatioUpdate_);
    lastRatioUpdate_ = now;
    // Invalidate; the cells hold the complemented contents, so the
    // opposite PMOS of every bit cell ages during the residence.
    key_[at] = kNoLine;
    line.inverted = true;
    if (line.shadow) {
        line.shadow = false;
        --shadowCount_;
    }
    ++invertedCount_;
    return true;
}

int
Cache::inversionTarget(unsigned set, bool skip_shadow) const
{
    // Plain-invalid lines hold dead data: inverting one is free.
    // Only a fully valid set sacrifices its LRU line, which is the
    // steady-state case the paper describes (most cache contents
    // are useless and about to be evicted anyway).  The shadow test
    // takes the same preference, or it would overestimate the
    // induced extra misses.
    unsigned w = usableWayFirst_;
    for (unsigned i = 0; i < usableWayCount_; ++i, w = nextWay(w)) {
        const std::size_t at = slot(set, w);
        if (key_[at] == kNoLine && !lines_[at].inverted &&
            !(skip_shadow && lines_[at].shadow))
            return static_cast<int>(w);
    }
    return lruValidWay(set, skip_shadow);
}

bool
Cache::invertLruLineOfSet(unsigned set, Cycle now)
{
    const int way = inversionTarget(set, false);
    return way >= 0 && invertLine(set, static_cast<unsigned>(way), now);
}

void
Cache::setUsableWindow(bool sets, unsigned first, unsigned count,
                       Cycle now)
{
    const unsigned n = sets ? numSets_ : config_.ways;
    assert(count >= 1 && count <= n);
    assert(first < n);
    (sets ? usableSetFirst_ : usableWayFirst_) = first;
    (sets ? usableSetCount_ : usableWayCount_) = count;
    usableSetsPow2_ = std::has_single_bit(usableSetCount_);
    // Every line outside the window becomes inverted (valid contents
    // are complemented in place; dead lines hold inverted garbage,
    // which balances their cells just the same).
    for (unsigned s = 0; s < numSets_; ++s) {
        for (unsigned w = 0; w < config_.ways; ++w) {
            const bool usable =
                ((sets ? s : w) + n - first) % n < count;
            if (!usable && !lineAt(s, w).inverted)
                invertLine(s, w, now);
        }
    }
}

void
Cache::setShadow(unsigned set, unsigned way, bool shadow)
{
    Line &line = lineAt(set, way);
    if (line.shadow == shadow)
        return;
    line.shadow = shadow;
    if (shadow)
        ++shadowCount_;
    else
        --shadowCount_;
}

void
Cache::clearShadows()
{
    for (auto &line : lines_)
        line.shadow = false;
    shadowCount_ = 0;
}

bool
Cache::shadowMarkLruLineOfSet(unsigned set)
{
    const int way = inversionTarget(set, true);
    if (way < 0)
        return false;
    setShadow(set, static_cast<unsigned>(way), true);
    return true;
}

bool
Cache::lineValid(unsigned set, unsigned way) const
{
    return key_[slot(set, way)] != kNoLine;
}

bool
Cache::lineInverted(unsigned set, unsigned way) const
{
    return lineAt(set, way).inverted;
}

} // namespace penelope
