#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace approxnoc {

void
Histogram::add(double x)
{
    ++count_;
    sum_ += x;
    if (x < 0) {
        ++underflow_;
        return;
    }
    std::size_t idx = static_cast<std::size_t>(x / width_);
    if (idx >= buckets_.size() - 1)
        idx = buckets_.size() - 1;
    ++buckets_[idx];
}

void
Histogram::merge(const Histogram &o)
{
    ANOC_ASSERT(width_ == o.width_ && buckets_.size() == o.buckets_.size(),
                "merging histograms with different shapes");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    underflow_ += o.underflow_;
    sum_ += o.sum_;
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t target =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    // Underflow samples rank below bucket 0: a target inside them
    // (q = 0 included) resolves to the histogram's lower bound.
    std::uint64_t seen = underflow_;
    if (seen >= target)
        return 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target)
            return (static_cast<double>(i) + 1.0) * width_;
    }
    return static_cast<double>(buckets_.size()) * width_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    underflow_ = 0;
    sum_ = 0.0;
}

} // namespace approxnoc
