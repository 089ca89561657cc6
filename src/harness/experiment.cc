#include "harness/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/cli.h"
#include "common/log.h"
#include "core/codec_factory.h"
#include "harness/report.h"
#include "workloads/workload.h"

namespace approxnoc::harness {

std::vector<Scheme>
parse_scheme_list(const std::string &s)
{
    if (s == "all")
        return {kAllSchemes, kAllSchemes + 5};
    std::vector<Scheme> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(scheme_from_string(item));
    if (out.empty())
        ANOC_FATAL("no schemes selected");
    return out;
}

std::vector<std::string>
parse_benchmark_list(const std::string &s)
{
    if (s == "all")
        return workload_names();
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        make_workload(item); // validates the name
        out.push_back(item);
    }
    if (out.empty())
        ANOC_FATAL("no benchmarks selected");
    return out;
}

bool
PointQuery::matches(const ExperimentPoint &p) const
{
    if (benchmark && *benchmark != p.benchmark)
        return false;
    if (scheme && *scheme != p.scheme)
        return false;
    if (threshold && *threshold != p.threshold)
        return false;
    if (approx_ratio && *approx_ratio != p.approx_ratio)
        return false;
    if (load && *load != p.load)
        return false;
    return true;
}

// ---------------------------------------------------------------- Builder

ExperimentSpec::Builder::Builder()
    : benchmarks_(workload_names()),
      schemes_(kAllSchemes, kAllSchemes + 5),
      thresholds_{10.0},
      ratios_{0.75},
      loads_{0.04}
{}

ExperimentSpec::Builder &
ExperimentSpec::Builder::benchmarks(std::vector<std::string> v)
{
    benchmarks_ = std::move(v);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::schemes(std::vector<Scheme> v)
{
    schemes_ = std::move(v);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::thresholds(std::vector<double> v)
{
    thresholds_ = std::move(v);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::threshold(double v)
{
    return thresholds({v});
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::approxRatios(std::vector<double> v)
{
    ratios_ = std::move(v);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::approxRatio(double v)
{
    return approxRatios({v});
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::loads(std::vector<double> v)
{
    loads_ = std::move(v);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::load(double v)
{
    return loads({v});
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::jobs(unsigned n)
{
    cfg_.jobs = n;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::seed(std::uint64_t s)
{
    cfg_.base_seed = s;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::maxRecords(std::size_t n)
{
    cfg_.max_records = n;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::cycles(Cycle n)
{
    cfg_.cycles = n;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::scale(unsigned n)
{
    cfg_.scale = n;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::csvDir(std::string dir)
{
    cfg_.csv_dir = std::move(dir);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::jsonDir(std::string dir)
{
    cfg_.json_dir = std::move(dir);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::metricsDir(std::string dir)
{
    cfg_.metrics_dir = std::move(dir);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::traceDir(std::string dir)
{
    cfg_.trace_dir = std::move(dir);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::sampleInterval(Cycle n)
{
    cfg_.sample_interval = n;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::profile(bool v)
{
    cfg_.profile = v;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::verbose(bool v)
{
    cfg_.verbose = v;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::progress(bool v)
{
    cfg_.progress = v;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::filter(std::function<bool(const ExperimentPoint &)> keep)
{
    keep_ = std::move(keep);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::fromCli(int argc, char **argv, const std::string &what)
{
    CliArgs args(argc, argv);
    if (args.has("help")) {
        std::printf(
            "%s\n"
            "Flags:\n"
            "  --benchmarks=<all|name,name,...>  (default all)\n"
            "  --schemes=<all|name,name,...>     (default all)\n"
            "  --threshold=<pct>                 error threshold, 0..100 (10)\n"
            "  --approx-ratio=<0..1>             approximable ratio (0.75)\n"
            "  --max-records=<n>                 trace replay cap (20000)\n"
            "  --load=<flits/cycle/node>         replay target load >0 (0.04)\n"
            "  --cycles=<n>                      synthetic run length (50000)\n"
            "  --scale=<n>                       workload size multiplier (1)\n"
            "  --jobs=<n>                        worker threads, 0=auto (1)\n"
            "  --seed=<n>                        experiment base seed\n"
            "  --csv-dir=<dir>                   CSV output dir (results)\n"
            "  --json-dir=<dir>                  JSON output dir (csv-dir)\n"
            "  --metrics-out=<dir>               per-point + merged metrics JSON\n"
            "  --trace-out=<dir>                 Chrome trace-event JSON per point\n"
            "  --sample-interval=<cycles>        time-series epoch, 0=off (0)\n"
            "  --profile                         phase self-profiling + profile.json\n"
            "  --progress                        per-point progress on stderr\n"
            "  --verbose                         chatty logging\n",
            what.c_str());
        std::exit(0);
    }
    benchmarks_ = parse_benchmark_list(args.getString("benchmarks", "all"));
    schemes_ = parse_scheme_list(args.getString("schemes", "all"));
    thresholds_ = {args.getDouble("threshold", 10.0, kPercentRange)};
    ratios_ = {args.getDouble("approx-ratio", 0.75, kFractionRange)};
    loads_ = {args.getDouble("load", 0.04, kPositiveRange)};
    cfg_.max_records =
        static_cast<std::size_t>(args.getCount("max-records", 20000));
    cfg_.cycles = static_cast<Cycle>(args.getCount("cycles", 50000));
    cfg_.scale = static_cast<unsigned>(args.getCount("scale", 1));
    cfg_.jobs = static_cast<unsigned>(args.getCount("jobs", 1));
    cfg_.base_seed = static_cast<std::uint64_t>(
        args.getInt("seed", static_cast<long>(cfg_.base_seed)));
    cfg_.csv_dir = args.getString("csv-dir", "results");
    cfg_.json_dir = args.getString("json-dir", "");
    cfg_.metrics_dir = args.getString("metrics-out", "");
    cfg_.trace_dir = args.getString("trace-out", "");
    cfg_.sample_interval =
        static_cast<Cycle>(args.getCount("sample-interval", 0));
    cfg_.profile = args.getBool("profile", false);
    cfg_.progress = args.getBool("progress", false);
    cfg_.verbose = args.getBool("verbose", false);
    set_verbose(cfg_.verbose);
    return *this;
}

ExperimentSpec
ExperimentSpec::Builder::build() const
{
    ANOC_ASSERT(!benchmarks_.empty() && !schemes_.empty() &&
                    !thresholds_.empty() && !ratios_.empty() &&
                    !loads_.empty(),
                "experiment grid has an empty dimension");
    ExperimentSpec spec;
    spec.cfg_ = cfg_;
    spec.benchmarks_ = benchmarks_;
    spec.schemes_ = schemes_;
    spec.thresholds_ = thresholds_;
    spec.ratios_ = ratios_;
    spec.loads_ = loads_;

    // Benchmark-major nesting mirrors the original per-figure loops,
    // so tables read in the familiar order.
    for (const auto &bm : benchmarks_)
        for (Scheme s : schemes_)
            for (double th : thresholds_)
                for (double ratio : ratios_)
                    for (double ld : loads_) {
                        ExperimentPoint p;
                        p.benchmark = bm;
                        p.scheme = s;
                        p.threshold = th;
                        p.approx_ratio = ratio;
                        p.load = ld;
                        if (keep_ && !keep_(p))
                            continue;
                        p.index = spec.points_.size();
                        p.seed = derive_seed(cfg_.base_seed, p.index);
                        spec.points_.push_back(std::move(p));
                    }
    ANOC_ASSERT(!spec.points_.empty(), "experiment grid is empty");
    return spec;
}

std::vector<std::size_t>
ExperimentSpec::select(const PointQuery &q) const
{
    std::vector<std::size_t> out;
    for (const auto &p : points_)
        if (q.matches(p))
            out.push_back(p.index);
    return out;
}

std::size_t
ExperimentSpec::indexOf(const PointQuery &q) const
{
    auto matches = select(q);
    if (matches.size() != 1)
        ANOC_FATAL("point query matched ", matches.size(),
                   " grid points (expected exactly 1)");
    return matches.front();
}

// ------------------------------------------------------------- Experiment

Experiment::Experiment(ExperimentSpec spec)
    : spec_(std::move(spec)), traces_(spec_.config().scale)
{}

void
Experiment::prefetchTraces()
{
    // Generate every trace the grid references up front (in parallel)
    // so point workers only ever read shared immutable traces.
    std::vector<std::string> needed;
    for (const auto &p : spec_.points()) {
        if (p.benchmark.empty())
            continue;
        bool seen = false;
        for (const auto &bm : needed)
            seen = seen || bm == p.benchmark;
        if (!seen)
            needed.push_back(p.benchmark);
    }
    ExperimentRunner runner(spec_.config().jobs);
    traces_.prefetch(needed, runner);
}

const ResultSink &
Experiment::run()
{
    prefetchTraces();
    return run([this](const ExperimentPoint &pt) {
        return run_replay_point(traces_.get(pt.benchmark), pt,
                                spec_.config());
    });
}

ProgressFn
make_progress(const ExperimentConfig &cfg)
{
    if (!cfg.progress)
        return {};
    return [](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "\r[%zu/%zu points]", done, total);
        if (done == total)
            std::fputc('\n', stderr);
        std::fflush(stderr);
    };
}

const ResultSink &
Experiment::run(const PointFn &fn)
{
    const ExperimentConfig &cfg = spec_.config();
    ExperimentRunner runner(cfg.jobs, make_progress(cfg));

    sink_ = std::make_unique<ResultSink>(spec_.size());
    const auto &points = spec_.points();
    auto statuses = runner.run(points.size(), [&](std::size_t i) {
        sink_->record(i, fn(points[i]));
    });
    for (std::size_t i = 0; i < statuses.size(); ++i)
        if (!statuses[i].ok)
            sink_->recordFailure(i, statuses[i].error);
    if (sink_->failures())
        ANOC_WARN(sink_->failures(), " of ", points.size(),
                  " grid points failed");

    // Fold the per-point registries in spec order into one merged
    // dump. Spec-order iteration (not completion order) keeps the file
    // byte-identical across --jobs settings.
    if (!cfg.metrics_dir.empty()) {
        std::vector<std::shared_ptr<const telemetry::MetricRegistry>> parts;
        parts.reserve(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            const PointResult &pr = sink_->at(i);
            parts.push_back(pr.ok ? pr.replay.metrics : nullptr);
        }
        telemetry::write_merged_metrics(cfg.metrics_dir, "metrics.json",
                                        parts);

        // Same spec-order discipline for the sweep-level QoR report:
        // ErrorProfile::merge commutes, so qor.json is byte-identical
        // at any --jobs. profile.json is wall-clock and exempt.
        ReportParts<telemetry::ErrorProfile> qor;
        ReportParts<telemetry::PhaseProfiler> prof;
        qor.reserve(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            const PointResult &pr = sink_->at(i);
            const std::string label = telemetry::PointTelemetry::pointLabel(
                points[i].index, points[i].benchmark,
                to_string(points[i].scheme));
            qor.emplace_back(label, pr.ok ? pr.replay.qor : nullptr);
            if (cfg.profile)
                prof.emplace_back(label, pr.ok ? pr.replay.profile : nullptr);
        }
        write_report(cfg.metrics_dir, "qor", qor);
        if (cfg.profile)
            write_report(cfg.metrics_dir, "profile", prof);
    }
    return *sink_;
}

const ResultSink &
Experiment::results() const
{
    ANOC_ASSERT(sink_, "Experiment::run() has not been called");
    return *sink_;
}

const PointResult &
Experiment::result(const PointQuery &q) const
{
    return results().at(spec_.indexOf(q));
}

const PointResult &
Experiment::resultAt(std::size_t index) const
{
    return results().at(index);
}

} // namespace approxnoc::harness
