/**
 * @file
 * The unified experiment API. An ExperimentSpec describes a
 * (benchmark x scheme x threshold x approx-ratio x load x flit width x
 * PMT size) grid plus the shared run configuration; its fluent Builder
 * parses the harness flags a binary reads. An Experiment executes the
 * grid on `--jobs` lanes, one isolated Simulator + Network +
 * CodecSystem per point; every point is deterministic, so `--jobs=1`
 * and `--jobs=N` produce bit-identical result tables.
 */
#ifndef APPROXNOC_HARNESS_EXPERIMENT_H
#define APPROXNOC_HARNESS_EXPERIMENT_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "harness/point_runner.h"
#include "harness/runner.h"
#include "harness/trace_library.h"

namespace approxnoc::harness {

/** Run-wide knobs shared by every grid point. */
struct ExperimentConfig {
    std::size_t max_records = 20000; ///< trace replay cap
    Cycle cycles = 50000;            ///< synthetic run length
    unsigned scale = 1;              ///< workload problem-size multiplier
    std::uint64_t seed = 12345;      ///< kernel seed of every trace
    unsigned jobs = 1;               ///< worker threads (0 = hardware)
    std::string csv_dir = "results";
    std::string json_dir; ///< empty = alongside the CSV in csv_dir

    /** @name Telemetry (all off by default) */
    ///@{
    std::string metrics_dir;   ///< per-point metrics + merged metrics.json
    std::string trace_dir;     ///< per-point Chrome trace-event files
    Cycle sample_interval = 0; ///< time-series epoch length, 0 = off
    ///@}

    /** Self-profiling (`--profile`): per-point phase timers plus, with
     * metrics enabled, per-point and merged profile.json artifacts.
     * fromCli() requires --metrics-out with it. */
    bool profile = false;

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
    unsigned flit_bits = 64;    ///< flit width (Table 1)
    std::size_t pmt_entries = 8; ///< dictionary PMT size (Table 1)
};

/** Grid coordinates with wildcards; unset fields match anything. */
struct PointQuery {
    std::optional<std::string> benchmark;
    std::optional<Scheme> scheme;
    std::optional<double> threshold;
    std::optional<double> approx_ratio;
    std::optional<double> load;
    std::optional<unsigned> flit_bits;
    std::optional<std::size_t> pmt_entries;

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
        Builder &flitBits(std::vector<unsigned> v);
        Builder &pmtEntries(std::vector<std::size_t> v);

        Builder &jobs(unsigned n);
        Builder &maxRecords(std::size_t n);
        Builder &csvDir(std::string dir);
        Builder &metricsDir(std::string dir);
        Builder &traceDir(std::string dir);
        Builder &sampleInterval(Cycle n);
        Builder &profile(bool v);

        /** Drop grid points @p keep rejects (applied at build()). */
        Builder &filter(std::function<bool(const ExperimentPoint &)> keep);

        /**
         * Parse the harness flags named in @p flags (from --benchmarks,
         * --schemes, --threshold, --approx-ratio, --load,
         * --max-records, --cycles, --scale, --jobs, --seed,
         * --metrics-out, --trace-out, --sample-interval, --profile and
         * --progress) plus --csv-dir, --json-dir and --verbose; any
         * other flag is fatal, and so is --profile or
         * --sample-interval without --metrics-out. Prints @p what and
         * those flags on --help, then exits. A flag that is given
         * replaces the value set before fromCli(), so a harness sets
         * its own defaults first; calls made after fromCli() override
         * the CLI values. The spec keeps @p flags (cliFlags()).
         */
        Builder &fromCli(int argc, char **argv, const std::string &what,
                         const std::vector<std::string> &flags);

        /** Materialize the (filtered) grid in deterministic order. */
        ExperimentSpec build() const;

      private:
        ExperimentConfig cfg_;
        std::vector<std::string> benchmarks_;
        std::vector<Scheme> schemes_;
        std::vector<double> thresholds_;
        std::vector<double> ratios_;
        std::vector<double> loads_;
        std::vector<unsigned> flit_bits_;
        std::vector<std::size_t> pmt_entries_;
        std::function<bool(const ExperimentPoint &)> keep_;
        std::optional<std::vector<std::string>> cli_flags_;
    };

    const ExperimentConfig &config() const { return cfg_; }
    const std::vector<ExperimentPoint> &points() const { return points_; }
    std::size_t size() const { return points_.size(); }

    const std::vector<std::string> &benchmarks() const { return benchmarks_; }
    const std::vector<Scheme> &schemes() const { return schemes_; }
    const std::vector<double> &thresholds() const { return thresholds_; }
    const std::vector<double> &approxRatios() const { return ratios_; }
    const std::vector<double> &loads() const { return loads_; }
    const std::vector<unsigned> &flitBits() const { return flit_bits_; }
    const std::vector<std::size_t> &pmtEntries() const
    {
        return pmt_entries_;
    }
    /** The harness flags given to fromCli(); unset without fromCli(). */
    const std::optional<std::vector<std::string>> &cliFlags() const
    {
        return cli_flags_;
    }

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
    std::vector<unsigned> flit_bits_;
    std::vector<std::size_t> pmt_entries_;
    std::optional<std::vector<std::string>> cli_flags_;
    std::vector<ExperimentPoint> points_;
};

/**
 * The flags a trace-replay grid reads besides --schemes: its
 * benchmark, threshold, ratio and load dimensions and every
 * ExperimentConfig field Experiment::run and run_replay_point read.
 */
inline const std::vector<std::string> kReplayFlags = {
    "benchmarks", "threshold", "approx-ratio", "load", "max-records",
    "scale", "jobs", "seed", "progress", "metrics-out", "trace-out",
    "sample-interval", "profile"};

/** Result slot of one grid point. */
struct PointResult {
    bool ok = false;   ///< the point produced a result
    std::string error; ///< failure text when !ok
    ReplayResult replay;
};

/**
 * An executable experiment: the spec, its trace library and, after
 * run(), one result per point in spec order.
 */
class Experiment
{
  public:
    explicit Experiment(ExperimentSpec spec);

    const ExperimentSpec &spec() const { return spec_; }
    /** The traces of the grid's benchmarks, generated by run(). */
    const TraceLibrary &traces() const { return traces_; }

    /** Custom point executor (testing, non-replay experiments). */
    using PointFn = std::function<ReplayResult(const ExperimentPoint &)>;

    /**
     * Generate every trace the grid references (in parallel), then
     * replay each grid point through run_replay_point on
     * config().jobs lanes.
     */
    void run();

    /** Like run(), but with @p fn as the per-point executor and no
     *  traces generated. */
    void run(const PointFn &fn);

    /** Number of points whose run threw. */
    std::size_t failures() const;

    /** Result of the unique point matching @p q. */
    const PointResult &result(const PointQuery &q) const;
    /** Result of point @p index (fatal before run()). */
    const PointResult &resultAt(std::size_t index) const;

  private:
    /** run(fn)'s body; @p harness holds the phases timed before the
     *  points (trace generation) for profile.json's `merged`. */
    void runPoints(const PointFn &fn,
                   const telemetry::PhaseProfiler &harness);

    ExperimentSpec spec_;
    TraceLibrary traces_;
    std::vector<PointResult> results_; ///< by point index, after run()
};

/**
 * Standard stderr progress callback (`\r[done/total <unit>]`) when
 * @p cfg asks for progress, empty otherwise. Shared by Experiment and
 * binaries that drive an ExperimentRunner directly.
 */
ProgressFn make_progress(const ExperimentConfig &cfg,
                         const char *unit = "points");

/**
 * --profile and --sample-interval write only under --metrics-out: when
 * @p profile or a nonzero @p sample_interval comes without a
 * @p metrics_dir, fatal, naming --metrics-out.
 */
void require_metrics_out(bool profile, Cycle sample_interval,
                         const std::string &metrics_dir);

/** Scheme list parsing ("all" or comma-separated names). */
std::vector<Scheme> parse_scheme_list(const std::string &s);
/** Benchmark list parsing ("all" or comma-separated names). */
std::vector<std::string> parse_benchmark_list(const std::string &s);

} // namespace approxnoc::harness

#endif // APPROXNOC_HARNESS_EXPERIMENT_H
