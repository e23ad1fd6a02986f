#include "stats.hh"

#include <algorithm>

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
CategoryCounter::fraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) /
        static_cast<double>(total_);
}

} // namespace penelope
