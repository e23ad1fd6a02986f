#include "techniques.hh"

#include <algorithm>
#include <cassert>

namespace penelope {

const char *
techniqueName(Technique technique)
{
    switch (technique) {
      case Technique::None:
        return "none";
      case Technique::All1:
        return "ALL1";
      case Technique::All0:
        return "ALL0";
      case Technique::All1K:
        return "ALL1-K%";
      case Technique::All0K:
        return "ALL0-K%";
      case Technique::Isv:
        return "ISV";
      case Technique::Unprotectable:
        return "unprotectable";
    }
    return "?";
}

BitDecision
chooseTechnique(double occupancy, double bias0_busy)
{
    assert(occupancy >= 0.0 && occupancy <= 1.0);
    assert(bias0_busy >= 0.0 && bias0_busy <= 1.0);
    BitDecision d;
    if (occupancy <= 0.5) {
        d.technique = Technique::Isv;
        return d;
    }
    const double zero_share = occupancy * bias0_busy;
    const double one_share = occupancy * (1.0 - bias0_busy);
    if (zero_share > 0.5) {
        d.technique = Technique::All1;
        d.k = 1.0;
    } else if (one_share > 0.5) {
        d.technique = Technique::All0;
        d.k = 1.0;
    } else if (bias0_busy > 1.0 - bias0_busy) {
        d.technique = Technique::All1K;
        // occ*bias0 + (1-occ)*(1-K) = 1/2
        d.k = 1.0 - (0.5 - zero_share) / (1.0 - occupancy);
        d.k = std::clamp(d.k, 0.0, 1.0);
    } else {
        d.technique = Technique::All0K;
        d.k = 1.0 - (0.5 - one_share) / (1.0 - occupancy);
        d.k = std::clamp(d.k, 0.0, 1.0);
    }
    return d;
}

double
expectedBias(const BitDecision &decision, double occupancy,
             double bias0_busy)
{
    const double busy_zero = occupancy * bias0_busy;
    const double idle = 1.0 - occupancy;
    switch (decision.technique) {
      case Technique::All1:
        return busy_zero; // idle time all ones
      case Technique::All0:
        return busy_zero + idle;
      case Technique::All1K:
        return busy_zero + idle * (1.0 - decision.k);
      case Technique::All0K:
        return busy_zero + idle * decision.k;
      case Technique::Isv: {
        // The balance meter holds inverted contents exactly half of
        // the overall time (when idle time allows), which cancels
        // the busy bias entirely: 0.5*b + 0.5*(1-b) = 0.5.
        const double inverted = std::min(0.5, idle);
        const double stale = idle - inverted;
        return busy_zero + stale * bias0_busy +
            inverted * (1.0 - bias0_busy);
      }
      case Technique::None:
      case Technique::Unprotectable:
      default:
        // Idle time keeps stale busy-distributed contents.
        return busy_zero + idle * bias0_busy;
    }
}

} // namespace penelope
