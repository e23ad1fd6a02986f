#include "inversion.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cache.hh"

namespace penelope {

const char *
mechanismName(MechanismKind kind)
{
    switch (kind) {
      case MechanismKind::None:
        return "Baseline";
      case MechanismKind::SetFixed50:
        return "SetFixed50%";
      case MechanismKind::WayFixed50:
        return "WayFixed50%";
      case MechanismKind::LineFixed50:
        return "LineFixed50%";
      case MechanismKind::LineDynamic60:
        return "LineDynamic60%";
    }
    return "?";
}

InversionMechanism::InversionMechanism(const MechanismParams &params)
    : params_(params)
{
    assert(params_.invertRatio >= 0.0 && params_.invertRatio < 1.0);
    assert(params_.kind != MechanismKind::LineDynamic60 ||
           params_.warmupCycles + params_.testCycles <=
               params_.periodCycles);
}

void
InversionMechanism::attach(Cache &cache)
{
    threshold_ = static_cast<unsigned>(
        std::lround(params_.invertRatio * cache.numLines()));
    if (params_.kind == MechanismKind::SetFixed50 ||
        params_.kind == MechanismKind::WayFixed50)
        applyWindow(cache, 0);
}

void
InversionMechanism::applyWindow(Cache &cache, Cycle now)
{
    const bool sets = params_.kind == MechanismKind::SetFixed50;
    const unsigned n = sets ? cache.numSets() : cache.numWays();
    const unsigned inverted = std::min<unsigned>(
        n - 1,
        static_cast<unsigned>(std::lround(params_.invertRatio * n)));
    firstUsable_ %= n;
    cache.setUsableWindow(sets, firstUsable_, n - inverted, now);
}

void
InversionMechanism::step(Cache &cache, Cycle now, bool shadow)
{
    // INVCOUNT below INVTHRESHOLD: invert the LRU valid line of a
    // random set, provided a write port is free this cycle.  If the
    // set has no valid line the counter is left unchanged and a new
    // attempt happens on a later cycle (Section 3.2.1).
    if ((shadow ? cache.shadowCount() : cache.invertedCount()) >=
        threshold_)
        return;
    if (!cache.rng().nextBool(cache.config().writePortFreeProb))
        return;
    const unsigned set =
        static_cast<unsigned>(cache.rng().nextInt(cache.numSets()));
    if (shadow)
        cache.shadowMarkLruLineOfSet(set);
    else
        cache.invertLruLineOfSet(set, now);
}

void
InversionMechanism::onCycle(Cache &cache, Cycle now)
{
    switch (params_.kind) {
      case MechanismKind::None:
        return;
      case MechanismKind::SetFixed50:
      case MechanismKind::WayFixed50:
        if (now - periodStart_ < params_.periodCycles)
            return;
        periodStart_ = now;
        ++firstUsable_;
        applyWindow(cache, now);
        return;
      case MechanismKind::LineFixed50:
        step(cache, now, false);
        return;
      case MechanismKind::LineDynamic60:
        break;
    }

    const Cycle in_period = now - periodStart_;
    if (in_period >= params_.periodCycles) {
        periodStart_ = now;
        enterPhase(cache, Phase::Warmup);
        return;
    }
    if (phase_ == Phase::Warmup &&
        in_period >= params_.warmupCycles) {
        enterPhase(cache, Phase::Test);
    } else if (phase_ == Phase::Test &&
               in_period >= params_.warmupCycles +
                   params_.testCycles) {
        enterPhase(cache, Phase::Run);
    }
    // The test phase shadow-runs the mechanism: it marks (but keeps
    // valid) the lines that would have been inverted.
    if (phase_ == Phase::Test || (phase_ == Phase::Run && active_))
        step(cache, now, phase_ == Phase::Test);
}

void
InversionMechanism::enterPhase(Cache &cache, Phase phase)
{
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
InversionMechanism::onShadowHit(Cache &cache, unsigned set,
                                unsigned way)
{
    if (params_.kind != MechanismKind::LineDynamic60)
        return;
    // The line would have been inverted: the hit would have been a
    // miss, and the refill would have inverted another line.
    ++extraMisses_;
    cache.setShadow(set, way, false);
    const unsigned other_set =
        static_cast<unsigned>(cache.rng().nextInt(cache.numSets()));
    cache.shadowMarkLruLineOfSet(other_set);
}

double
InversionMechanism::activeFraction() const
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
