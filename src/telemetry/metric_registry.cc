#include "telemetry/metric_registry.h"

#include <cstdio>

namespace approxnoc::telemetry {

namespace {

/** %.17g round-trips doubles and renders equal values identically. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

Counter &
MetricScope::counter(const std::string &name) const
{
    return reg_->counter(prefix_ + "." + name);
}

RunningStat &
MetricScope::stat(const std::string &name) const
{
    return reg_->stat(prefix_ + "." + name);
}

Histogram &
MetricScope::histogram(const std::string &name, double bucket_width,
                       std::size_t n_buckets) const
{
    return reg_->histogram(prefix_ + "." + name, bucket_width, n_buckets);
}

MetricScope
MetricScope::scope(const std::string &sub) const
{
    return MetricScope(*reg_, prefix_ + "." + sub);
}

Histogram &
MetricRegistry::histogram(const std::string &path, double bucket_width,
                          std::size_t n_buckets)
{
    auto it = histograms_.find(path);
    if (it == histograms_.end())
        it = histograms_.emplace(path, Histogram(bucket_width, n_buckets))
                 .first;
    return it->second;
}

void
MetricRegistry::merge(const MetricRegistry &o)
{
    for (const auto &[path, c] : o.counters_)
        counters_[path].merge(c);
    for (const auto &[path, s] : o.stats_)
        stats_[path].merge(s);
    for (const auto &[path, h] : o.histograms_) {
        auto it = histograms_.find(path);
        if (it == histograms_.end())
            histograms_.emplace(path, h);
        else
            it->second.merge(h);
    }
}

void
MetricRegistry::writeJson(std::ostream &os) const
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[path, c] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << path
           << "\": " << c.value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"stats\": {";
    first = true;
    for (const auto &[path, s] : stats_) {
        os << (first ? "\n" : ",\n") << "    \"" << path << "\": {\"n\": "
           << s.count() << ", \"mean\": " << num(s.mean())
           << ", \"min\": " << num(s.min()) << ", \"max\": " << num(s.max())
           << ", \"sum\": " << num(s.sum()) << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[path, h] : histograms_) {
        os << (first ? "\n" : ",\n") << "    \"" << path
           << "\": {\"bucket_width\": " << num(h.bucketWidth())
           << ", \"count\": " << h.count()
           << ", \"underflow\": " << h.underflow()
           << ", \"mean\": " << num(h.mean())
           << ", \"p50\": " << num(h.percentile(0.5))
           << ", \"p99\": " << num(h.percentile(0.99)) << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.buckets().size(); ++i)
            os << (i ? ", " : "") << h.buckets()[i];
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

void
MetricRegistry::writeCsv(std::ostream &os) const
{
    os << "path,kind,count,value,min,max\n";
    for (const auto &[path, c] : counters_)
        os << path << ",counter," << c.value() << "," << c.value() << ",,\n";
    for (const auto &[path, s] : stats_)
        os << path << ",stat," << s.count() << "," << num(s.mean()) << ","
           << num(s.min()) << "," << num(s.max()) << "\n";
    for (const auto &[path, h] : histograms_)
        os << path << ",histogram," << h.count() << "," << num(h.mean())
           << ",0," << num(h.percentile(1.0)) << "\n";
}

} // namespace approxnoc::telemetry
