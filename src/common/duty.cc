#include "duty.hh"

#include <algorithm>

namespace penelope {

// ------------------------------------------- MaskedTimeAccumulator

MaskedTimeAccumulator::MaskedTimeAccumulator(unsigned width)
    : width_(width), lanes_((width + 63) / 64), time_(width, 0)
{
    assert(width >= 1 && width <= kMaxWidth);
}

void
MaskedTimeAccumulator::merge(const MaskedTimeAccumulator &other)
{
    assert(other.width_ == width_);
    for (unsigned i = 0; i < width_; ++i)
        time_[i] += other.time_[i];
}

void
MaskedTimeAccumulator::loadTimes(const std::uint64_t *times)
{
    std::copy(times, times + width_, time_.begin());
}

void
MaskedTimeAccumulator::reset()
{
    std::fill(time_.begin(), time_.end(), 0);
}

// -------------------------------------------------- BitBiasTracker

BitBiasTracker::BitBiasTracker(unsigned width)
    : width_(width), one_(width)
{
    assert(width >= 1 && width <= kMaxWidth);
    maskLo_ = width_ >= 64
        ? ~std::uint64_t(0)
        : (std::uint64_t(1) << width_) - 1;
    maskHi_ = width_ <= 64
        ? 0
        : (width_ == 128 ? ~std::uint64_t(0)
                         : (std::uint64_t(1) << (width_ - 64)) - 1);
}

BitBiasTracker
BitBiasTracker::fromTimes(unsigned width,
                          const std::uint64_t *zero_times,
                          std::uint64_t total_time)
{
    BitBiasTracker t(width);
    std::vector<std::uint64_t> ones(width);
    // The times are exact modulo 2^64 (a long run's sums wrap), so
    // a zero-time may exceed the total: the difference is still the
    // exact one-time modulo 2^64.
    for (unsigned i = 0; i < width; ++i)
        ones[i] = total_time - zero_times[i];
    t.one_.loadTimes(ones.data());
    t.totalTime_ = total_time;
    return t;
}

void
BitBiasTracker::observeBatch(const std::uint64_t *bit_words,
                             std::uint64_t lane_mask,
                             std::uint64_t dt)
{
    const unsigned lanes = static_cast<unsigned>(
        std::popcount(lane_mask));
    if (lanes == 0 || dt == 0)
        return;
    // Per bit, the selected values with the bit at "1" each
    // contribute dt of one-time: popcount * dt in one direct add.
    // Identical integer sums to `lanes` scalar observe() calls, in
    // per-value order -- addition commutes -- so every derived
    // statistic matches the scalar path bit for bit.
    for (unsigned b = 0; b < width_; ++b) {
        const auto ones = static_cast<std::uint64_t>(
            std::popcount(bit_words[b] & lane_mask));
        if (ones)
            one_.addBit(b, ones * dt);
    }
    totalTime_ += static_cast<std::uint64_t>(lanes) * dt;
}

double
BitBiasTracker::probability(std::uint64_t one_time) const
{
    if (totalTime_ == 0)
        return 0.5;
    return static_cast<double>(totalTime_ - one_time) /
        static_cast<double>(totalTime_);
}

double
BitBiasTracker::zeroProbability(unsigned bit) const
{
    return probability(one_.time(bit));
}

double
BitBiasTracker::worstCaseStress(unsigned bit) const
{
    const double p0 = zeroProbability(bit);
    return std::max(p0, 1.0 - p0);
}

double
BitBiasTracker::maxZeroProbability() const
{
    double best = 0.0;
    for (const std::uint64_t one : one_.times())
        best = std::max(best, probability(one));
    return best;
}

double
BitBiasTracker::minZeroProbability() const
{
    double best = 1.0;
    for (const std::uint64_t one : one_.times())
        best = std::min(best, probability(one));
    return best;
}

double
BitBiasTracker::maxWorstCaseStress() const
{
    double best = 0.5;
    for (const std::uint64_t one : one_.times()) {
        const double p0 = probability(one);
        best = std::max(best, std::max(p0, 1.0 - p0));
    }
    return best;
}

std::vector<double>
BitBiasTracker::biasVector() const
{
    std::vector<double> v;
    v.reserve(width_);
    for (const std::uint64_t one : one_.times())
        v.push_back(probability(one));
    return v;
}

std::uint64_t
BitBiasTracker::zeroTime(unsigned bit) const
{
    return totalTime_ - one_.time(bit);
}

void
BitBiasTracker::merge(const BitBiasTracker &other)
{
    assert(other.width_ == width_);
    one_.merge(other.one_);
    totalTime_ += other.totalTime_;
}

void
BitBiasTracker::reset()
{
    one_.reset();
    totalTime_ = 0;
}

} // namespace penelope
