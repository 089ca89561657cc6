/**
 * @file
 * The unified experiment API. An ExperimentSpec describes a
 * (benchmark x scheme x threshold x approx-ratio x load) grid plus the
 * shared run configuration; its fluent Builder parses the common CLI
 * flags every harness binary accepts (including --jobs, --seed and
 * --json-dir). An Experiment executes the grid on `--jobs` lanes, one
 * isolated Simulator + Network + CodecSystem per point, with
 * deterministic per-point seeds — `--jobs=1` and `--jobs=N` produce
 * bit-identical result tables.
 */
#ifndef APPROXNOC_HARNESS_EXPERIMENT_H
#define APPROXNOC_HARNESS_EXPERIMENT_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "harness/point_runner.h"
#include "harness/result_sink.h"
#include "harness/runner.h"
#include "harness/trace_library.h"

namespace approxnoc::harness {

/** Run-wide knobs shared by every grid point. */
struct ExperimentConfig {
    std::size_t max_records = 20000; ///< trace replay cap
    Cycle cycles = 50000;            ///< synthetic run length
    unsigned scale = 1;              ///< workload problem-size multiplier
    unsigned jobs = 1;               ///< worker threads (0 = hardware)
    std::uint64_t base_seed = 0xA9C0FFEEull; ///< per-point seed root
    std::string csv_dir = "results";
    std::string json_dir; ///< empty = alongside the CSV in csv_dir

    /** @name Telemetry (all off by default) */
    ///@{
    std::string metrics_dir;   ///< per-point metrics + merged metrics.json
    std::string trace_dir;     ///< per-point Chrome trace-event files
    Cycle sample_interval = 0; ///< time-series epoch length, 0 = off
    ///@}

    /** Self-profiling (`--profile`): per-point phase timers plus, with
     * metrics enabled, per-point and merged profile.json artifacts. */
    bool profile = false;

    bool verbose = false;
    bool progress = false; ///< per-point progress lines on stderr
};

/** One cell of the experiment grid. */
struct ExperimentPoint {
    std::size_t index = 0; ///< position in spec order
    std::string benchmark;
    Scheme scheme = Scheme::Baseline;
    double threshold = 10.0;    ///< error threshold e%
    double approx_ratio = 0.75; ///< approximable packet fraction
    double load = 0.04;         ///< offered data flits/cycle/node
    std::uint64_t seed = 0;     ///< derived from (base_seed, index)
};

/** Grid coordinates with wildcards; unset fields match anything. */
struct PointQuery {
    std::optional<std::string> benchmark;
    std::optional<Scheme> scheme;
    std::optional<double> threshold;
    std::optional<double> approx_ratio;
    std::optional<double> load;

    bool matches(const ExperimentPoint &p) const;
};

/** Immutable description of one experiment sweep. */
class ExperimentSpec
{
  public:
    /** Fluent builder; dimensions default to the paper's Table 1. */
    class Builder
    {
      public:
        Builder();

        Builder &benchmarks(std::vector<std::string> v);
        Builder &schemes(std::vector<Scheme> v);
        Builder &thresholds(std::vector<double> v);
        Builder &threshold(double v);
        Builder &approxRatios(std::vector<double> v);
        Builder &approxRatio(double v);
        Builder &loads(std::vector<double> v);
        Builder &load(double v);

        Builder &jobs(unsigned n);
        Builder &seed(std::uint64_t s);
        Builder &maxRecords(std::size_t n);
        Builder &cycles(Cycle n);
        Builder &scale(unsigned n);
        Builder &csvDir(std::string dir);
        Builder &jsonDir(std::string dir);
        Builder &metricsDir(std::string dir);
        Builder &traceDir(std::string dir);
        Builder &sampleInterval(Cycle n);
        Builder &profile(bool v);
        Builder &verbose(bool v);
        Builder &progress(bool v);

        /** Drop grid points @p keep rejects (applied at build()). */
        Builder &filter(std::function<bool(const ExperimentPoint &)> keep);

        /**
         * Parse the shared harness flags (--benchmarks, --schemes,
         * --threshold, --approx-ratio, --load, --max-records,
         * --cycles, --scale, --jobs, --seed, --csv-dir, --json-dir,
         * --metrics-out, --trace-out, --sample-interval, --progress,
         * --verbose). Prints @p what and the flag list on --help,
         * then exits. Dimension calls made after fromCli() override
         * the CLI values.
         */
        Builder &fromCli(int argc, char **argv, const std::string &what);

        /** Materialize the (filtered) grid in deterministic order. */
        ExperimentSpec build() const;

      private:
        ExperimentConfig cfg_;
        std::vector<std::string> benchmarks_;
        std::vector<Scheme> schemes_;
        std::vector<double> thresholds_;
        std::vector<double> ratios_;
        std::vector<double> loads_;
        std::function<bool(const ExperimentPoint &)> keep_;
    };

    const ExperimentConfig &config() const { return cfg_; }
    const std::vector<ExperimentPoint> &points() const { return points_; }
    std::size_t size() const { return points_.size(); }

    const std::vector<std::string> &benchmarks() const { return benchmarks_; }
    const std::vector<Scheme> &schemes() const { return schemes_; }
    const std::vector<double> &thresholds() const { return thresholds_; }
    const std::vector<double> &approxRatios() const { return ratios_; }
    const std::vector<double> &loads() const { return loads_; }

    /** Indices of every point matching @p q, in spec order. */
    std::vector<std::size_t> select(const PointQuery &q) const;
    /** Index of the unique point matching @p q (fatal otherwise). */
    std::size_t indexOf(const PointQuery &q) const;

  private:
    friend class Builder;
    ExperimentConfig cfg_;
    std::vector<std::string> benchmarks_;
    std::vector<Scheme> schemes_;
    std::vector<double> thresholds_;
    std::vector<double> ratios_;
    std::vector<double> loads_;
    std::vector<ExperimentPoint> points_;
};

/**
 * An executable experiment: the spec, its trace library and, after
 * run(), the per-point results.
 */
class Experiment
{
  public:
    explicit Experiment(ExperimentSpec spec);

    const ExperimentSpec &spec() const { return spec_; }
    TraceLibrary &traces() { return traces_; }

    /** Custom point executor (testing, non-replay experiments). */
    using PointFn = std::function<ReplayResult(const ExperimentPoint &)>;

    /**
     * Run every grid point through the standard trace-replay executor
     * on config().jobs workers. Traces are pre-generated in parallel
     * first. Returns the sink with results in spec order.
     */
    const ResultSink &run();

    /**
     * Like run(), but with @p fn as the per-point executor. Traces
     * are not prefetched; call prefetchTraces() first (or rely on the
     * library's lazy thread-safe generation) if @p fn replays traces.
     */
    const ResultSink &run(const PointFn &fn);

    /** Generate every trace the grid references, in parallel. */
    void prefetchTraces();

    /** Results of the last run() (fatal if never run). */
    const ResultSink &results() const;

    /** Result of the unique point matching @p q. */
    const PointResult &result(const PointQuery &q) const;
    const PointResult &resultAt(std::size_t index) const;

  private:
    ExperimentSpec spec_;
    TraceLibrary traces_;
    std::unique_ptr<ResultSink> sink_;
};

/**
 * Standard stderr progress callback (`\r[done/total points]`) when
 * @p cfg asks for progress, empty otherwise. Shared by Experiment and
 * binaries that drive an ExperimentRunner directly.
 */
ProgressFn make_progress(const ExperimentConfig &cfg);

/** Scheme list parsing ("all" or comma-separated names). */
std::vector<Scheme> parse_scheme_list(const std::string &s);
/** Benchmark list parsing ("all" or comma-separated names). */
std::vector<std::string> parse_benchmark_list(const std::string &s);

} // namespace approxnoc::harness

#endif // APPROXNOC_HARNESS_EXPERIMENT_H
