/**
 * @file
 * Per-point telemetry bundle: one MetricRegistry plus optional Sampler
 * and PacketTracer, created from the harness-level TelemetryOptions and
 * written out as per-point artifacts at point completion. Each worker
 * owns its point's bundle exclusively — no locks anywhere — and the
 * harness later folds the registries in spec order, so merged output is
 * byte-identical across --jobs settings.
 */
#ifndef APPROXNOC_TELEMETRY_TELEMETRY_H
#define APPROXNOC_TELEMETRY_TELEMETRY_H

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/metric_registry.h"
#include "telemetry/packet_tracer.h"
#include "telemetry/sampler.h"

namespace approxnoc::telemetry {

/**
 * What to collect and where to put it. Empty directory strings disable
 * the corresponding output; default-constructed options disable
 * everything (the simulator then pays only null-pointer guards).
 */
struct TelemetryOptions {
    std::string metrics_dir; ///< per-point metrics + time-series files
    std::string trace_dir;   ///< per-point Chrome trace-event files
    Cycle sample_interval = 0; ///< epoch length in cycles; 0 = off
    std::string label = "run"; ///< artifact file-name stem
    std::uint32_t pid = 0;     ///< trace process id (point index)

    bool metricsEnabled() const { return !metrics_dir.empty(); }
    bool traceEnabled() const { return !trace_dir.empty(); }
    bool samplingEnabled() const
    {
        return metricsEnabled() && sample_interval > 0;
    }
    bool enabled() const { return metricsEnabled() || traceEnabled(); }
};

/**
 * Lowercase @p name and replace path-hostile / separator characters so
 * it can be both a metric path segment and a file-name stem
 * ("DI-VAXX" -> "di_vaxx").
 */
std::string sanitize_component(const std::string &name);

/** The live collectors for one experiment point. */
class PointTelemetry
{
  public:
    explicit PointTelemetry(const TelemetryOptions &opts);

    const TelemetryOptions &options() const { return opts_; }

    /** Always present; shared so results can outlive the point. */
    const std::shared_ptr<MetricRegistry> &metrics() const
    {
        return metrics_;
    }
    /** Null unless options().samplingEnabled(). */
    Sampler *sampler() const { return sampler_.get(); }
    /** Null unless options().traceEnabled(). */
    PacketTracer *tracer() const { return tracer_.get(); }

    /**
     * Write every enabled artifact:
     *   <trace_dir>/<label>.trace.json
     *   <metrics_dir>/<label>.metrics.json
     *   <metrics_dir>/<label>.timeseries.csv and .json
     * Best-effort: an unwritable directory is reported on stderr, never
     * fatal (telemetry must not kill a finished simulation).
     */
    void write() const;

    /** Deterministic per-point label: `p<index>_<benchmark>_<scheme>`. */
    static std::string pointLabel(std::size_t index,
                                  const std::string &benchmark,
                                  const std::string &scheme);

  private:
    TelemetryOptions opts_;
    std::shared_ptr<MetricRegistry> metrics_;
    std::unique_ptr<Sampler> sampler_;
    std::unique_ptr<PacketTracer> tracer_;
};

/**
 * Fold per-point registries (spec order) into one and write
 * `<dir>/<name>` as JSON. Null entries (points without telemetry) are
 * skipped. Returns false if the file could not be written.
 */
bool write_merged_metrics(
    const std::string &dir, const std::string &name,
    const std::vector<std::shared_ptr<const MetricRegistry>> &parts);

/**
 * Create @p dir as needed and stream @p writer into `<dir>/<file>`.
 * Best-effort like PointTelemetry::write(): failures are reported on
 * stderr and return false, never throw. Writes a run's qor.json and
 * profile.json (harness::RunInstruments).
 */
bool write_json_artifact(const std::string &dir, const std::string &file,
                         const std::function<void(std::ostream &)> &writer);

} // namespace approxnoc::telemetry

#endif // APPROXNOC_TELEMETRY_TELEMETRY_H
