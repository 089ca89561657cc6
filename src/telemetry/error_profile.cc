#include "telemetry/error_profile.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "telemetry/metric_registry.h"

namespace approxnoc::telemetry {

namespace {

constexpr double kFpScale = 4294967296.0; // 2^32

__int128
to_fp(double v)
{
    return static_cast<__int128>(std::llround(v * kFpScale));
}

double
fp_to_double(__int128 v)
{
    return static_cast<double>(v) / kFpScale;
}

/** %.17g, the registry's round-trippable double format. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
ErrorProfile::Agg::add(double signed_err)
{
    if (count == 0) {
        min = max = signed_err;
    } else {
        min = std::min(min, signed_err);
        max = std::max(max, signed_err);
    }
    ++count;
    const double a = std::fabs(signed_err);
    if (signed_err == 0.0)
        ++zero;
    max_abs = std::max(max_abs, a);
    const double clamped = std::clamp(signed_err, -kClampAbs, kClampAbs);
    sum_fp += to_fp(clamped);
    sum_abs_fp += to_fp(std::fabs(clamped));
}

void
ErrorProfile::Agg::merge(const Agg &o)
{
    if (o.count == 0)
        return;
    if (count == 0) {
        *this = o;
        return;
    }
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    max_abs = std::max(max_abs, o.max_abs);
    count += o.count;
    zero += o.zero;
    sum_fp += o.sum_fp;
    sum_abs_fp += o.sum_abs_fp;
}

int
ErrorProfile::bucketOf(double abs_err)
{
    if (abs_err == 0.0)
        return -1;
    const double x = std::log10(abs_err);
    const double idx = std::floor((x - kLogFloor) / kLogWidth);
    if (idx < 0.0)
        return 0;
    if (idx >= static_cast<double>(kBuckets))
        return kBuckets; // |e| >= 1: overflow bucket
    return static_cast<int>(idx);
}

double
ErrorProfile::bucketLowerEdge(int b)
{
    if (b <= 0)
        return 0.0;
    if (b >= kBuckets)
        return 1.0;
    return std::pow(10.0, kLogFloor + b * kLogWidth);
}

void
ErrorProfile::record(NodeId src, NodeId dst, double signed_err)
{
    const double a = std::fabs(signed_err);
    total_.add(signed_err);
    const int b = bucketOf(a);
    if (b >= 0)
        ++buckets_[static_cast<std::size_t>(b)];
    flows_[{src, dst}].add(signed_err);
    if (debug_limit_ > 0.0 && a > debug_limit_) {
        ++violations_;
        assert(!"recorded relative error exceeds the armed QoR debug limit");
    }
}

void
ErrorProfile::merge(const ErrorProfile &o)
{
    if (&o == this)
        return;
    total_.merge(o.total_);
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += o.buckets_[i];
    for (const auto &[flow, agg] : o.flows_)
        flows_[flow].merge(agg);
    violations_ += o.violations_;
}

void
ErrorProfile::clearSamples()
{
    total_ = {};
    buckets_ = {};
    flows_.clear();
}

std::uint64_t
ErrorProfile::samples() const
{
    return total_.count;
}

std::uint64_t
ErrorProfile::zeroCount() const
{
    return total_.zero;
}

std::uint64_t
ErrorProfile::violations() const
{
    return violations_;
}

double
ErrorProfile::mean() const
{
    return total_.count == 0
               ? 0.0
               : fp_to_double(total_.sum_fp) /
                     static_cast<double>(total_.count);
}

double
ErrorProfile::meanAbs() const
{
    return total_.count == 0
               ? 0.0
               : fp_to_double(total_.sum_abs_fp) /
                     static_cast<double>(total_.count);
}

double
ErrorProfile::maxAbs() const
{
    return total_.max_abs;
}

double
ErrorProfile::percentileAbs(double q) const
{
    if (total_.count == 0)
        return 0.0;
    const double target = q * static_cast<double>(total_.count);
    double cum = static_cast<double>(total_.zero);
    if (cum >= target)
        return 0.0;
    for (int b = 0; b <= kBuckets; ++b) {
        cum += static_cast<double>(buckets_[static_cast<std::size_t>(b)]);
        if (cum >= target) {
            // Upper edge of the holding bucket; the overflow bucket
            // reports the true observed maximum instead of +inf.
            return b >= kBuckets ? total_.max_abs : bucketLowerEdge(b + 1);
        }
    }
    return total_.max_abs;
}

void
ErrorProfile::setDebugLimit(double limit)
{
    debug_limit_ = limit;
}

void
ErrorProfile::exportTo(MetricRegistry &reg, const std::string &prefix) const
{
    if (total_.count == 0)
        return; // exact schemes leave no qor.* paths behind
    reg.counter(prefix + ".samples").inc(total_.count);
    reg.counter(prefix + ".zero").inc(total_.zero);
    reg.counter(prefix + ".violations").inc(violations_);
    const double n = static_cast<double>(total_.count);
    reg.stat(prefix + ".mean_rel_err").add(fp_to_double(total_.sum_fp) / n);
    reg.stat(prefix + ".mean_abs_rel_err")
        .add(fp_to_double(total_.sum_abs_fp) / n);
    reg.stat(prefix + ".max_abs_rel_err").add(total_.max_abs);
    for (const auto &[flow, agg] : flows_) {
        const std::string fp = prefix + ".flow." +
                               std::to_string(flow.first) + "_" +
                               std::to_string(flow.second);
        reg.counter(fp + ".samples").inc(agg.count);
        reg.stat(fp + ".max_abs_rel_err").add(agg.max_abs);
    }
}

void
ErrorProfile::writeAgg(std::ostream &os, const Agg &a)
{
    const double n = a.count == 0 ? 1.0 : static_cast<double>(a.count);
    os << "{\"count\": " << a.count << ", \"zero\": " << a.zero
       << ", \"mean\": " << num(fp_to_double(a.sum_fp) / n)
       << ", \"mean_abs\": " << num(fp_to_double(a.sum_abs_fp) / n)
       << ", \"min\": " << num(a.min) << ", \"max\": " << num(a.max)
       << ", \"max_abs\": " << num(a.max_abs) << "}";
}

void
ErrorProfile::writeJson(std::ostream &os) const
{
    os << "{\n  \"schema\": \"approxnoc-qor-profile-v1\",\n";
    os << "  \"total\": ";
    writeAgg(os, total_);
    os << ",\n  \"violations\": " << violations_;
    os << ",\n  \"p50_abs\": " << num(percentileAbs(0.50));
    os << ",\n  \"p90_abs\": " << num(percentileAbs(0.90));
    os << ",\n  \"p99_abs\": " << num(percentileAbs(0.99));
    os << ",\n  \"buckets\": [";
    bool first = true;
    for (int b = 0; b <= kBuckets; ++b) {
        const std::uint64_t c = buckets_[static_cast<std::size_t>(b)];
        if (c == 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        os << "{\"lo\": " << num(bucketLowerEdge(b)) << ", \"count\": " << c
           << "}";
    }
    os << "],\n  \"flows\": {";
    first = true;
    for (const auto &[flow, agg] : flows_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    \"" << flow.first << "->" << flow.second << "\": ";
        writeAgg(os, agg);
    }
    os << (flows_.empty() ? "" : "\n  ") << "}\n}\n";
}

} // namespace approxnoc::telemetry
