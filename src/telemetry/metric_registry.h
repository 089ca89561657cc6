/**
 * @file
 * Hierarchical metric registry: counters, running stats and histograms
 * keyed by dotted component paths ("router.3.vc_stall",
 * "codec.di_vaxx.hit_approx"), layered on the common/stats primitives
 * and their parallel merge() support. Each worker thread owns a private
 * registry and the harness folds them at point completion, so the hot
 * path never takes a lock. std::map keying makes every dump
 * deterministic regardless of insertion or merge order.
 */
#ifndef APPROXNOC_TELEMETRY_METRIC_REGISTRY_H
#define APPROXNOC_TELEMETRY_METRIC_REGISTRY_H

#include <map>
#include <ostream>
#include <string>

#include "common/stats.h"

namespace approxnoc::telemetry {

class MetricRegistry;

/**
 * A prefixed view into a registry: every lookup is rooted at a
 * component path, so a router asks for "vc_stall" and gets
 * "router.3.vc_stall". Scopes nest (scope("router").scope("3")).
 * Cheap to copy; holds no metric state of its own.
 */
class MetricScope
{
  public:
    MetricScope(MetricRegistry &reg, std::string prefix)
        : reg_(&reg), prefix_(std::move(prefix))
    {}

    Counter &counter(const std::string &name) const;
    RunningStat &stat(const std::string &name) const;
    Histogram &histogram(const std::string &name, double bucket_width = 1.0,
                         std::size_t n_buckets = 64) const;

    /** A nested scope rooted at "<prefix>.<sub>". */
    MetricScope scope(const std::string &sub) const;

    const std::string &prefix() const { return prefix_; }
    MetricRegistry &registry() const { return *reg_; }

  private:
    MetricRegistry *reg_;
    std::string prefix_;
};

/**
 * The registry proper. Entries are created on first access and owned
 * by the registry; components keep references or pointers for
 * hot-path increments.
 */
class MetricRegistry
{
  public:
    Counter &counter(const std::string &path) { return counters_[path]; }
    RunningStat &stat(const std::string &path) { return stats_[path]; }

    /**
     * The histogram at @p path, created with the given shape on first
     * access. Later calls return the existing histogram (shape
     * arguments are ignored; merge() still asserts shape equality).
     */
    Histogram &histogram(const std::string &path, double bucket_width = 1.0,
                         std::size_t n_buckets = 64);

    /** A view rooted at @p prefix. */
    MetricScope scope(const std::string &prefix)
    {
        return MetricScope(*this, prefix);
    }

    /**
     * Fold another registry in, entry by entry. Same-path histograms
     * must share their shape. Merging per-point registries in spec
     * order yields byte-identical dumps regardless of how many workers
     * produced them.
     */
    void merge(const MetricRegistry &o);

    bool
    empty() const
    {
        return counters_.empty() && stats_.empty() && histograms_.empty();
    }

    const std::map<std::string, Counter> &counters() const { return counters_; }
    const std::map<std::string, RunningStat> &stats() const { return stats_; }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * Emit everything as one JSON object:
     * `{"counters": {...}, "stats": {...}, "histograms": {...}}`,
     * keys sorted, doubles printed with %.17g so equal values always
     * render identically.
     */
    void writeJson(std::ostream &os) const;

    /** Flat CSV: `path,kind,count,value,min,max` one metric per row. */
    void writeCsv(std::ostream &os) const;

    void reset();

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, RunningStat> stats_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace approxnoc::telemetry

#endif // APPROXNOC_TELEMETRY_METRIC_REGISTRY_H
