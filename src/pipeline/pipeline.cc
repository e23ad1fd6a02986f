#include "pipeline.hh"

#include <algorithm>
#include <cassert>

namespace penelope {

Pipeline::Pipeline(const PipelineConfig &config)
    : config_(config),
      intRegs_(config.intRegs),
      fpRegs_(config.fpRegs),
      sched_(config.schedEntries),
      dl0_(config.dl0,
           mechanismParams(config.dl0Mechanism, config.dl0, false,
                           config.mechanismTimeScale)),
      dtlb_(config.dtlb,
            mechanismParams(config.dtlbMechanism, config.dtlb, true,
                            config.mechanismTimeScale)),
      dl0Mru_(config.dl0.ways),
      rng_(0x9090)
{
    intMap_.assign(numArchIntRegs, -1);
    fpMap_.assign(numArchFpRegs, -1);
    intReady_.assign(config_.intRegs, false);
    fpReady_.assign(config_.fpRegs, false);

    // Map the initial architectural state (ready).
    for (unsigned r = 0; r < numArchIntRegs; ++r) {
        const int phys = intRegs_.allocate(0);
        assert(phys >= 0);
        intMap_[r] = phys;
        intReady_[phys] = true;
    }
    for (unsigned r = 0; r < numArchFpRegs; ++r) {
        const int phys = fpRegs_.allocate(0);
        assert(phys >= 0);
        fpMap_[r] = phys;
        fpReady_[phys] = true;
    }
}

bool
Pipeline::sourcesReady(const InFlight &f) const
{
    const bool fp = isFp(f.uop.cls);
    const auto &ready = fp ? fpReady_ : intReady_;
    if (f.src1Phys >= 0 && !ready[f.src1Phys])
        return false;
    if (f.src2Phys >= 0 && !ready[f.src2Phys])
        return false;
    return true;
}

namespace {

/** Can @p cls issue on @p port under the given binding? */
bool
canIssueOn(UopClass cls, int bound_port, unsigned port)
{
    if (bound_port >= 0)
        return static_cast<unsigned>(bound_port) == port;
    switch (cls) {
      case UopClass::IntAlu:
        return port == 0 || port == 1;
      case UopClass::IntMul:
      case UopClass::Branch:
        return port == 1;
      case UopClass::Load:
        return port == 2;
      case UopClass::Store:
        return port == 3;
      case UopClass::FpAdd:
        return port == 4;
      case UopClass::FpMul:
        // FP multiply issues on port 0 (Core-style split of the FP
        // stack across ports) so FP-heavy traces are not serialised
        // behind a single port.
        return port == 0;
      case UopClass::Nop:
      default:
        return port == 0;
    }
}

} // namespace

void
Pipeline::doCommit(Cycle now)
{
    unsigned committed = 0;
    unsigned int_writes = rfWritesThisCycle_;
    while (!rob_.empty() && committed < config_.commitWidth &&
           rob_.front().completed) {
        InFlight &f = rob_.front();
        if (f.prevPhys >= 0) {
            const bool fp = isFp(f.uop.cls);
            const bool port_free =
                int_writes < config_.rfWritePorts;
            if (port_free)
                ++int_writes;
            (fp ? fpRegs_ : intRegs_)
                .release(static_cast<unsigned>(f.prevPhys), now);
            const unsigned cls = fp ? 1 : 0;
            ++rfReleaseTotal_[cls];
            if (port_free)
                ++rfReleaseFree_[cls];
        }
        rob_.pop_front();
        ++committed;
    }
}

void
Pipeline::doIssue(Cycle now)
{
    for (unsigned port = 0; port < 5; ++port) {
        for (std::size_t i = 0; i < rob_.size(); ++i) {
            InFlight &f = rob_[i];
            if (f.issued)
                continue;
            if (!canIssueOn(f.uop.cls, f.boundPort, port))
                continue;
            if (!sourcesReady(f))
                continue;

            // Issue.  Memory uops live in the MOB, not the
            // scheduler (Table 2), so they have no entry to free.
            f.issued = true;
            if (f.schedEntry >= 0) {
                sched_.release(
                    static_cast<unsigned>(f.schedEntry), now);
                ++schedReleaseTotal_;
                if (allocsThisCycle_ < config_.allocWidth)
                    ++schedReleaseFree_;
                f.schedEntry = -1;
            }

            unsigned latency = f.uop.latency;
            if (f.uop.cls == UopClass::Load ||
                f.uop.cls == UopClass::Store) {
                if (!dtlb_.access(f.uop.addr, now).hit)
                    latency += config_.dtlbMissPenalty;
                const AccessResult l1 = dl0_.access(f.uop.addr, now);
                if (l1.hit)
                    dl0Mru_.add(dl0_.hitRecency(l1));
                else
                    latency += config_.dl0MissPenalty;
                if (f.uop.cls == UopClass::Load)
                    latency += config_.loadHitLatency - 1;
            }
            f.completeAt = now + std::max(1u, latency);

            // Adder accounting: integer ALU ports and AGUs.
            if (port < 4 &&
                (f.uop.cls == UopClass::IntAlu || port >= 2))
                ++adderBusy_[port];
            break; // one issue per port per cycle
        }
    }
}

bool
Pipeline::tryAllocate(const Uop &uop, Cycle now)
{
    // Loads and stores allocate into the MOB, not the scheduler
    // (Table 2: "loads and stores are not in the scheduler").
    const bool needs_sched = !isMemory(uop.cls);
    if (rob_.size() >= config_.robEntries)
        return false;
    if (needs_sched && sched_.full())
        return false;

    InFlight f;
    f.uop = uop;
    f.boundPort = -1;
    if (uop.cls == UopClass::IntAlu &&
        config_.adderPolicy == AdderAllocationPolicy::Uniform) {
        f.boundPort = uniformNextPortZero_ ? 0 : 1;
        uniformNextPortZero_ = !uniformNextPortZero_;
    }

    const bool fp = isFp(uop.cls);
    auto &map = fp ? fpMap_ : intMap_;
    auto &ready = fp ? fpReady_ : intReady_;

    if (uop.usesSrc1())
        f.src1Phys = fp ? fpMap_[uop.srcReg1 % numArchFpRegs]
                        : intMap_[uop.srcReg1 % numArchIntRegs];
    if (uop.usesSrc2())
        f.src2Phys = fp ? fpMap_[uop.srcReg2 % numArchFpRegs]
                        : intMap_[uop.srcReg2 % numArchIntRegs];

    if (uop.writesReg()) {
        const int phys = (fp ? fpRegs_ : intRegs_).allocate(now);
        if (phys < 0)
            return false; // free list empty: stall
        f.dstPhys = phys;
        ready[phys] = false;
        const unsigned arch = fp
            ? uop.dstReg % numArchFpRegs
            : uop.dstReg % numArchIntRegs;
        f.prevPhys = map[arch];
        map[arch] = phys;
    }

    if (needs_sched) {
        f.schedEntry = sched_.allocate(now);
        assert(f.schedEntry >= 0);
    }

    if (uop.cls == UopClass::Branch &&
        rng_.nextBool(config_.mispredictProb)) {
        f.mispredicted = true;
    }

    rob_.push_back(f);
    return true;
}

PipelineStats
Pipeline::run(TraceGenerator &gen, std::size_t num_uops)
{
    PipelineStats stats;
    std::size_t consumed = 0;
    bool have_pending = false;
    Uop pending;
    Cycle now = 1;

    while (consumed < num_uops || !rob_.empty()) {
        rfWritesThisCycle_ = 0;
        allocsThisCycle_ = 0;

        // Completions.
        for (std::size_t i = 0; i < rob_.size(); ++i) {
            InFlight &f = rob_[i];
            if (f.issued && !f.completed && f.completeAt <= now) {
                f.completed = true;
                if (f.dstPhys >= 0) {
                    ++rfWritesThisCycle_;
                    (isFp(f.uop.cls) ? fpReady_ : intReady_)
                        [f.dstPhys] = true;
                }
                if (f.mispredicted) {
                    allocBlockedUntil_ = std::max(
                        allocBlockedUntil_,
                        now + config_.redirectPenalty);
                }
            }
        }

        doCommit(now);
        doIssue(now);

        // Allocate.
        if (now >= allocBlockedUntil_) {
            while (allocsThisCycle_ < config_.allocWidth &&
                   consumed < num_uops) {
                if (!have_pending) {
                    pending = gen.next();
                    have_pending = true;
                }
                if (!tryAllocate(pending, now))
                    break;
                have_pending = false;
                ++consumed;
                ++allocsThisCycle_;
            }
        }

        dl0_.tick(now);
        dtlb_.tick(now);
        ++now;
    }

    stats.cycles = now;
    stats.uops = num_uops;
    stats.cpi = num_uops
        ? static_cast<double>(now) /
            static_cast<double>(num_uops)
        : 0.0;
    for (unsigned a = 0; a < 4; ++a) {
        stats.adderUtilization[a] =
            static_cast<double>(adderBusy_[a]) /
            static_cast<double>(now);
    }
    stats.intRfOccupancy = intRegs_.occupancy(now);
    stats.fpRfOccupancy = fpRegs_.occupancy(now);
    stats.schedOccupancy = sched_.occupancy(now);
    stats.intRfPortFree = rfReleaseTotal_[0]
        ? static_cast<double>(rfReleaseFree_[0]) /
            static_cast<double>(rfReleaseTotal_[0])
        : 1.0;
    stats.fpRfPortFree = rfReleaseTotal_[1]
        ? static_cast<double>(rfReleaseFree_[1]) /
            static_cast<double>(rfReleaseTotal_[1])
        : 1.0;
    stats.schedPortFree = schedReleaseTotal_
        ? static_cast<double>(schedReleaseFree_) /
            static_cast<double>(schedReleaseTotal_)
        : 1.0;
    stats.dl0Hits = dl0_.hits();
    stats.dl0Misses = dl0_.misses();
    stats.dtlbMisses = dtlb_.misses();
    const CategoryCounter &mru = dl0Mru_;
    stats.mruHitFraction[0] = mru.fraction(0);
    stats.mruHitFraction[1] =
        mru.categories() > 1 ? mru.fraction(1) : 0.0;
    double rest = 0.0;
    for (std::size_t i = 2; i < mru.categories(); ++i)
        rest += mru.fraction(i);
    stats.mruHitFraction[2] = rest;
    return stats;
}

} // namespace penelope
