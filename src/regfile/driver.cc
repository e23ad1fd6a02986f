#include "driver.hh"

#include <cassert>

namespace penelope {

RegFileReplay::RegFileReplay(RegisterFile &rf,
                             const RegReplayConfig &config)
    : rf_(rf), config_(config), rng_(config.seed)
{
    const unsigned arch_regs =
        config_.fp ? numArchFpRegs : numArchIntRegs;
    archMap_.assign(arch_regs, -1);
    // Architectural state starts mapped, holding zero values
    // (non-inverted), as at the start of the paper's traces.
    for (unsigned r = 0; r < arch_regs; ++r) {
        const int phys = rf_.allocate(0);
        assert(phys >= 0);
        rf_.write(static_cast<unsigned>(phys),
                  BitWord(rf_.width()), 0);
        archMap_[r] = phys;
    }
}

void
RegFileReplay::feed(const Uop *uops, std::size_t n)
{
    Cycle now = clock_;
    for (std::size_t i = 0; i < n; ++i, ++now) {
        // Inline front-due guard: most cycles have no release due,
        // so the drain loop is only entered when the oldest pending
        // entry has matured.
        if (!pending_.empty() && pending_.front().due <= now)
            drainReleases(now, false);
        const Uop &uop = uops[i];
        if (!uop.writesReg())
            continue;
        if (isFp(uop.cls) != config_.fp)
            continue;

        int phys = rf_.allocate(now);
        if (phys < 0) {
            // Free-list pressure: force the oldest pending release
            // (the pipeline would have stalled until commit).
            drainReleases(now, true);
            phys = rf_.allocate(now);
            if (phys < 0)
                continue; // nothing to release; drop the write
        }
        const BitWord value = config_.fp
            ? BitWord(rf_.width(), uop.dstVal, uop.dstValHi)
            : BitWord(rf_.width(), uop.dstVal);
        rf_.write(static_cast<unsigned>(phys), value, now);
        ++result_.writes;

        const unsigned arch = uop.dstReg;
        assert(arch < archMap_.size());
        if (archMap_[arch] >= 0) {
            pending_.push_back({now + config_.commitDelay,
                                static_cast<unsigned>(archMap_[arch])});
        }
        archMap_[arch] = phys;
    }
    clock_ = now;
}

RegReplayResult
RegFileReplay::result() const
{
    RegReplayResult r = result_;
    r.cycles = clock_;
    r.occupancy = rf_.occupancy(clock_);
    r.freeFraction = 1.0 - r.occupancy;
    return r;
}

void
RegFileReplay::drainReleases(Cycle now, bool force)
{
    while (!pending_.empty() &&
           (pending_.front().due <= now || force)) {
        const PendingRelease rel = pending_.front();
        pending_.pop_front();
        rf_.release(rel.entry, now,
                    rng_.nextBool(config_.portFreeProb));
        ++result_.releases;
        if (force) {
            ++result_.forcedReleases;
            force = false; // free one entry, then stop forcing
        }
    }
}

} // namespace penelope
