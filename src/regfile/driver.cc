#include "driver.hh"

#include <cassert>

namespace penelope {

RegFileReplay::RegFileReplay(const RegReplayConfig &config)
    : config_(config), rng_(config.seed)
{
    archMap_.assign(config_.fp ? numArchFpRegs : numArchIntRegs, -1);
}

RegFileReplay::RegFileReplay(RegisterFile &rf,
                             const RegReplayConfig &config)
    : RegFileReplay(config)
{
    attach(rf);
}

void
RegFileReplay::attach(RegisterFile &rf)
{
    assert(clock_ == 0);
    assert(files_.empty() ||
           (rf.numEntries() == files_.front()->numEntries() &&
            rf.width() == files_.front()->width()));
    // Architectural state starts mapped, holding zero values
    // (non-inverted), as at the start of the paper's traces.  A
    // fresh file's free list hands out the entries the first file
    // took.
    for (int &mapped : archMap_) {
        const int phys = rf.allocate(0);
        assert(phys >= 0);
        assert(files_.empty() || phys == mapped);
        rf.write(static_cast<unsigned>(phys), BitWord(rf.width()), 0);
        mapped = phys;
    }
    files_.push_back(&rf);
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

        // Every file has the same free list, so each takes the entry
        // the first one does.
        RegisterFile &first = *files_.front();
        int phys = first.allocate(now);
        if (phys < 0) {
            // Free-list pressure: force the oldest pending release
            // (the pipeline would have stalled until commit).
            drainReleases(now, true);
            phys = first.allocate(now);
            if (phys < 0)
                continue; // nothing to release; drop the write
        }
        const BitWord value = config_.fp
            ? BitWord(first.width(), uop.dstVal, uop.dstValHi)
            : BitWord(first.width(), uop.dstVal);
        first.write(static_cast<unsigned>(phys), value, now);
        for (std::size_t f = 1; f < files_.size(); ++f) {
            [[maybe_unused]] const int same = files_[f]->allocate(now);
            assert(same == phys);
            files_[f]->write(static_cast<unsigned>(phys), value, now);
        }
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
    assert(!files_.empty());
    r.occupancy = files_.front()->occupancy(clock_);
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
        const bool port = rng_.nextBool(config_.portFreeProb);
        for (RegisterFile *rf : files_)
            rf->release(rel.entry, now, port);
        ++result_.releases;
        if (force) {
            ++result_.forcedReleases;
            force = false; // free one entry, then stop forcing
        }
    }
}

} // namespace penelope
