#include "inversion.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace penelope {

// ---------------------------------------------------------------- Set

SetFixedInversion::SetFixedInversion(double invert_ratio,
                                     Cycle rotate_period)
    : ratio_(invert_ratio), rotatePeriod_(rotate_period)
{
    assert(ratio_ >= 0.0 && ratio_ < 1.0);
}

void
SetFixedInversion::applyWindow(Cache &cache, Cycle now)
{
    const unsigned sets = cache.numSets();
    const unsigned inverted = std::min<unsigned>(
        sets - 1,
        static_cast<unsigned>(std::lround(ratio_ * sets)));
    cache.setUsableSets(firstUsable_, sets - inverted, now);
}

void
SetFixedInversion::attach(Cache &cache, Cycle now)
{
    firstUsable_ = 0;
    lastRotate_ = now;
    applyWindow(cache, now);
}

void
SetFixedInversion::onCycle(Cache &cache, Cycle now)
{
    if (now - lastRotate_ < rotatePeriod_)
        return;
    lastRotate_ = now;
    firstUsable_ = (firstUsable_ + 1) % cache.numSets();
    applyWindow(cache, now);
}

std::string
SetFixedInversion::name() const
{
    return "SetFixed" +
        std::to_string(static_cast<int>(ratio_ * 100)) + "%";
}

// ---------------------------------------------------------------- Way

WayFixedInversion::WayFixedInversion(double invert_ratio,
                                     Cycle rotate_period)
    : ratio_(invert_ratio), rotatePeriod_(rotate_period)
{
    assert(ratio_ >= 0.0 && ratio_ < 1.0);
}

void
WayFixedInversion::applyWindow(Cache &cache, Cycle now)
{
    const unsigned ways = cache.numWays();
    const unsigned inverted = std::min<unsigned>(
        ways - 1,
        static_cast<unsigned>(std::lround(ratio_ * ways)));
    cache.setUsableWays(firstUsable_, ways - inverted, now);
}

void
WayFixedInversion::attach(Cache &cache, Cycle now)
{
    firstUsable_ = 0;
    lastRotate_ = now;
    applyWindow(cache, now);
}

void
WayFixedInversion::onCycle(Cache &cache, Cycle now)
{
    if (now - lastRotate_ < rotatePeriod_)
        return;
    lastRotate_ = now;
    firstUsable_ = (firstUsable_ + 1) % cache.numWays();
    applyWindow(cache, now);
}

std::string
WayFixedInversion::name() const
{
    return "WayFixed" +
        std::to_string(static_cast<int>(ratio_ * 100)) + "%";
}

// --------------------------------------------------------------- Line

LineFixedInversion::LineFixedInversion(double invert_ratio)
    : ratio_(invert_ratio)
{
    assert(ratio_ >= 0.0 && ratio_ < 1.0);
}

void
LineFixedInversion::attach(Cache &cache, Cycle now)
{
    (void)now;
    threshold_ = static_cast<unsigned>(
        std::lround(ratio_ * cache.numLines()));
}

void
LineFixedInversion::onCycle(Cache &cache, Cycle now)
{
    // INVCOUNT below INVTHRESHOLD: invert the LRU valid line of a
    // random set, provided a write port is free this cycle.  If the
    // set has no valid line the counter is left unchanged and a new
    // attempt happens on a later cycle (Section 3.2.1).
    if (cache.invertedCount() >= threshold_)
        return;
    if (!cache.rng().nextBool(cache.config().writePortFreeProb))
        return;
    const unsigned set =
        static_cast<unsigned>(cache.rng().nextInt(cache.numSets()));
    cache.invertLruLineOfSet(set, now);
}

std::string
LineFixedInversion::name() const
{
    return "LineFixed" +
        std::to_string(static_cast<int>(ratio_ * 100)) + "%";
}

// ------------------------------------------------------------ Dynamic

LineDynamicInversion::LineDynamicInversion(
    const DynamicInversionParams &p)
    : params_(p)
{
    assert(params_.invertRatio >= 0.0 && params_.invertRatio < 1.0);
    assert(params_.warmupCycles + params_.testCycles <=
           params_.periodCycles);
}

void
LineDynamicInversion::attach(Cache &cache, Cycle now)
{
    threshold_ = static_cast<unsigned>(
        std::lround(params_.invertRatio * cache.numLines()));
    periodStart_ = now;
    enterPhase(cache, Phase::Warmup, now);
}

void
LineDynamicInversion::enterPhase(Cache &cache, Phase phase,
                                 Cycle now)
{
    (void)now;
    phase_ = phase;
    switch (phase) {
      case Phase::Warmup:
        cache.clearShadows();
        active_ = false;
        break;
      case Phase::Test:
        extraMisses_ = 0;
        accessesAtTestStart_ = cache.accesses();
        break;
      case Phase::Run: {
        const std::uint64_t test_accesses =
            cache.accesses() - accessesAtTestStart_;
        const double rate = test_accesses == 0
            ? 0.0
            : static_cast<double>(extraMisses_) /
                static_cast<double>(test_accesses);
        active_ = rate <= params_.extraMissThreshold;
        ++decisionsTotal_;
        if (active_)
            ++decisionsActive_;
        cache.clearShadows();
        break;
      }
    }
}

void
LineDynamicInversion::onCycle(Cache &cache, Cycle now)
{
    const Cycle in_period = now - periodStart_;
    if (in_period >= params_.periodCycles) {
        periodStart_ = now;
        enterPhase(cache, Phase::Warmup, now);
        return;
    }
    if (phase_ == Phase::Warmup &&
        in_period >= params_.warmupCycles) {
        enterPhase(cache, Phase::Test, now);
    } else if (phase_ == Phase::Test &&
               in_period >= params_.warmupCycles +
                   params_.testCycles) {
        enterPhase(cache, Phase::Run, now);
    }

    if (phase_ == Phase::Test) {
        // Shadow-run the mechanism: mark (but keep valid) the lines
        // that would have been inverted.
        if (cache.shadowCount() < threshold_ &&
            cache.rng().nextBool(
                cache.config().writePortFreeProb)) {
            const unsigned set = static_cast<unsigned>(
                cache.rng().nextInt(cache.numSets()));
            cache.shadowMarkLruLineOfSet(set);
        }
    } else if (phase_ == Phase::Run && active_) {
        if (cache.invertedCount() < threshold_ &&
            cache.rng().nextBool(
                cache.config().writePortFreeProb)) {
            const unsigned set = static_cast<unsigned>(
                cache.rng().nextInt(cache.numSets()));
            cache.invertLruLineOfSet(set, now);
        }
    }
}

void
LineDynamicInversion::onShadowHit(Cache &cache, unsigned set,
                                  unsigned way, Cycle now)
{
    (void)now;
    // The line would have been inverted: the hit would have been a
    // miss, and the refill would have inverted another line.
    ++extraMisses_;
    cache.setShadow(set, way, false);
    const unsigned other_set =
        static_cast<unsigned>(cache.rng().nextInt(cache.numSets()));
    cache.shadowMarkLruLineOfSet(other_set);
}

std::string
LineDynamicInversion::name() const
{
    return "LineDynamic" +
        std::to_string(
            static_cast<int>(params_.invertRatio * 100)) + "%";
}

double
LineDynamicInversion::activeFraction() const
{
    if (decisionsTotal_ == 0)
        return 0.0;
    return static_cast<double>(decisionsActive_) /
        static_cast<double>(decisionsTotal_);
}

double
dl0ExtraMissThreshold(std::uint32_t size_bytes)
{
    if (size_bytes >= 32 * 1024)
        return 0.02;
    if (size_bytes >= 16 * 1024)
        return 0.03;
    return 0.04;
}

double
dtlbExtraMissThreshold(std::uint32_t entries)
{
    if (entries >= 128)
        return 0.005;
    if (entries >= 64)
        return 0.01;
    return 0.02;
}

} // namespace penelope
