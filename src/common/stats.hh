/**
 * @file
 * Small statistics helpers: running moments and category counts.
 */

#ifndef PENELOPE_COMMON_STATS_HH
#define PENELOPE_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace penelope {

/**
 * Numerically stable running mean / variance / min / max
 * (Welford's algorithm).
 */
class RunningStats
{
  public:
    RunningStats() { reset(); }

    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance. */
    double variance() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return n_ ? mean_ * n_ : 0.0; }

  private:
    std::uint64_t n_;
    double mean_;
    double m2_;
    double min_;
    double max_;
};

/**
 * Counter histogram over small integer categories (e.g.\ hit way
 * position 0..assoc-1).
 */
class CategoryCounter
{
  public:
    explicit CategoryCounter(std::size_t categories)
        : counts_(categories, 0), total_(0)
    {}

    /** Inline: the cache counts every hit's recency position. */
    void
    add(std::size_t category, std::uint64_t weight = 1)
    {
        counts_.at(category) += weight;
        total_ += weight;
    }

    std::size_t categories() const { return counts_.size(); }
    std::uint64_t count(std::size_t i) const { return counts_.at(i); }
    std::uint64_t total() const { return total_; }
    double fraction(std::size_t i) const;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_;
};

} // namespace penelope

#endif // PENELOPE_COMMON_STATS_HH
