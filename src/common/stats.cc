#include "stats.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace penelope {

void
RunningStats::add(double x)
{
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const std::uint64_t total = n_ + other.n_;
    m2_ += other.m2_ +
        delta * delta * static_cast<double>(n_) *
        static_cast<double>(other.n_) / static_cast<double>(total);
    mean_ += delta * static_cast<double>(other.n_) /
        static_cast<double>(total);
    n_ = total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStats::reset()
{
    n_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

double
RunningStats::variance() const
{
    if (n_ < 1)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0), total_(0)
{
    assert(hi > lo);
    assert(bins > 0);
}

void
Histogram::add(double x, std::uint64_t weight)
{
    const double w = (x - lo_) / (hi_ - lo_);
    auto bin = static_cast<std::int64_t>(
        w * static_cast<double>(counts_.size()));
    bin = std::clamp<std::int64_t>(
        bin, 0, static_cast<std::int64_t>(counts_.size()) - 1);
    counts_[static_cast<std::size_t>(bin)] += weight;
    total_ += weight;
}

double
Histogram::binFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) /
        static_cast<double>(total_);
}

double
Histogram::binLeft(std::size_t i) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
        static_cast<double>(counts_.size());
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return lo_;
    const double target = q * static_cast<double>(total_);
    double running = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        running += static_cast<double>(counts_[i]);
        if (running >= target)
            return binLeft(i + 1 <= counts_.size() ? i + 1 : i);
    }
    return hi_;
}

double
CategoryCounter::fraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) /
        static_cast<double>(total_);
}

} // namespace penelope
