#include "regfile.hh"

#include <cassert>

#include "common/bitword.hh"

namespace penelope {

RegisterFile::RegisterFile(const RegFileConfig &config)
    : config_(config),
      entries_(config.numEntries),
      pool_(config.numEntries),
      rinv_(config.width),
      bias_(config.width)
{
    assert(config_.numEntries >= 1);
    for (auto &e : entries_)
        e.value = BitWord(config_.width);
    // RINV starts as the inversion of the all-zero value.
    rinv_ = BitWord(config_.width).inverted();
}

void
RegisterFile::write(unsigned entry, const BitWord &value, Cycle now)
{
    assert(entry < entries_.size());
    assert(value.width() == config_.width);
    Entry &e = entries_[entry];
    if (entry == kSampledEntry)
        meterFlush(now);
    flushEntry(e, now);
    e.value = value;
    e.holdsInverted = false;
    // RINV periodically samples (and inverts) a written value.
    if (rinvCountdown_ == 0) {
        rinvCountdown_ = config_.rinvSampleInterval;
        rinv_ = value.inverted();
    }
    --rinvCountdown_;
}

void
RegisterFile::write(unsigned entry, Word value, Cycle now)
{
    write(entry, BitWord(config_.width, value), now);
}

void
RegisterFile::release(unsigned entry, Cycle now, bool port_available)
{
    assert(entry < entries_.size());
    pool_.release(entry, now);
    Entry &e = entries_[entry];

    if (!isvEnabled_)
        return;

    // Balance decision from the sampled entry's timestamps: update
    // with inverted contents when non-inverted residence leads.
    meterFlush(now);
    if (sampledNonInvertedTime_ < sampledInvertedTime_) {
        ++isvStats_.updatesSkipped;
        return;
    }
    if (!port_available) {
        ++isvStats_.updatesDiscarded;
        return;
    }
    if (entry == kSampledEntry)
        meterFlush(now);
    flushEntry(e, now);
    e.value = rinv_;
    e.holdsInverted = true;
    ++isvStats_.updatesApplied;
}

const BitBiasTracker &
RegisterFile::finalizeBias(Cycle now)
{
    for (auto &e : entries_)
        flushEntry(e, now);
    meterFlush(now);
    return bias_;
}

} // namespace penelope
