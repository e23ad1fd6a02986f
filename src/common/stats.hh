/**
 * @file
 * Small statistics helpers: running moments and fixed-bin histograms.
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
    double stddev() const;
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
 * Fixed-width histogram over [lo, hi); samples outside the range are
 * clamped into the first/last bin.  Used e.g.\ for bias distributions
 * and MRU-position hit counting.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x, std::uint64_t weight = 1);

    std::size_t bins() const { return counts_.size(); }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    std::uint64_t total() const { return total_; }

    /** Fraction of total weight in bin i (0 if empty). */
    double binFraction(std::size_t i) const;

    /** Left edge of bin i. */
    double binLeft(std::size_t i) const;

    /** Value below which fraction q of the weight lies. */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_;
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
