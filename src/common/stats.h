/**
 * @file
 * Lightweight statistics package: counters, running means and
 * fixed-bucket histograms. The telemetry MetricRegistry
 * (telemetry/metric_registry.h) groups them by dotted path.
 */
#ifndef APPROXNOC_COMMON_STATS_H
#define APPROXNOC_COMMON_STATS_H

#include <cstdint>
#include <vector>

namespace approxnoc {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Fold another counter in (per-point merge). */
    void merge(const Counter &o) { value_ += o.value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Streaming mean / min / max / variance accumulator (Welford). */
class RunningStat
{
  public:
    void
    add(double x)
    {
        ++n_;
        double d = x - mean_;
        mean_ += d / static_cast<double>(n_);
        m2_ += d * (x - mean_);
        if (x < min_ || n_ == 1)
            min_ = x;
        if (x > max_ || n_ == 1)
            max_ = x;
        sum_ += x;
    }

    /**
     * Fold another accumulator in (Chan et al. parallel Welford
     * combine), exact up to floating-point rounding: merging per-point
     * stats equals accumulating the concatenated stream. Lets each
     * grid point keep a private accumulator and combine at the end,
     * instead of sharing one under a lock.
     */
    void
    merge(const RunningStat &o)
    {
        if (o.n_ == 0)
            return;
        if (n_ == 0) {
            *this = o;
            return;
        }
        std::uint64_t n = n_ + o.n_;
        double delta = o.mean_ - mean_;
        m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(o.n_) /
                           static_cast<double>(n);
        mean_ += delta * static_cast<double>(o.n_) / static_cast<double>(n);
        if (o.min_ < min_)
            min_ = o.min_;
        if (o.max_ > max_)
            max_ = o.max_;
        sum_ += o.sum_;
        n_ = n;
    }

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    void reset() { *this = RunningStat(); }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Histogram over [0, bucket_width * n_buckets) with an overflow bucket
 * and an explicit underflow count for negative samples (they are never
 * lumped into bucket 0, which would skew percentile()).
 */
class Histogram
{
  public:
    explicit Histogram(double bucket_width = 1.0, std::size_t n_buckets = 64)
        : width_(bucket_width), buckets_(n_buckets + 1, 0)
    {}

    void add(double x);
    /** Fold another histogram in (must share width and bucket count). */
    void merge(const Histogram &o);
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
    /**
     * Value below which @p q (in [0,1]) of samples fall, at bucket
     * resolution. Underflow samples rank below every bucket, so a
     * target that falls inside them (q = 0 included) yields 0.0, the
     * histogram's lower bound.
     */
    double percentile(double q) const;
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    /** Samples below 0 (outside every bucket). */
    std::uint64_t underflow() const { return underflow_; }
    double bucketWidth() const { return width_; }
    void reset();

  private:
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t underflow_ = 0;
    double sum_ = 0.0;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_STATS_H
