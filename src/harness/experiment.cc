#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/cli.h"
#include "common/log.h"
#include "core/codec_factory.h"
#include "harness/report.h"
#include "telemetry/phase_profiler.h"
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

void
require_metrics_out(bool profile, Cycle sample_interval,
                     const std::string &metrics_dir)
{
    if (!metrics_dir.empty())
        return;
    if (profile)
        ANOC_FATAL("flag --profile needs --metrics-out=<dir>");
    if (sample_interval > 0)
        ANOC_FATAL("flag --sample-interval needs --metrics-out=<dir>");
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
    if (flit_bits && *flit_bits != p.flit_bits)
        return false;
    if (pmt_entries && *pmt_entries != p.pmt_entries)
        return false;
    return true;
}

// ---------------------------------------------------------------- Builder

ExperimentSpec::Builder::Builder()
    : benchmarks_(workload_names()),
      schemes_(kAllSchemes, kAllSchemes + 5),
      thresholds_{10.0},
      ratios_{0.75},
      loads_{0.04},
      flit_bits_{64},
      pmt_entries_{8}
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
ExperimentSpec::Builder::flitBits(std::vector<unsigned> v)
{
    flit_bits_ = std::move(v);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::pmtEntries(std::vector<std::size_t> v)
{
    pmt_entries_ = std::move(v);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::jobs(unsigned n)
{
    cfg_.jobs = n;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::maxRecords(std::size_t n)
{
    cfg_.max_records = n;
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::csvDir(std::string dir)
{
    cfg_.csv_dir = std::move(dir);
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
ExperimentSpec::Builder::filter(std::function<bool(const ExperimentPoint &)> keep)
{
    keep_ = std::move(keep);
    return *this;
}

ExperimentSpec::Builder &
ExperimentSpec::Builder::fromCli(int argc, char **argv, const std::string &what,
                                 const std::vector<std::string> &flags)
{
    // Every harness flag and its --help line; a binary accepts the
    // ones it names plus the three output flags.
    static const struct {
        const char *name, *syntax, *help;
    } kHarnessFlags[] = {
        {"benchmarks", "=<all|name,name,...>", nullptr},
        {"schemes", "=<all|name,name,...>", "(default all)"},
        {"threshold", "=<pct>", "error threshold, 0..100 (10)"},
        {"approx-ratio", "=<0..1>", "approximable ratio (0.75)"},
        {"max-records", "=<n>", "trace replay cap (20000)"},
        {"load", "=<flits/cycle/node>", "replay target load >0 (0.04)"},
        {"cycles", "=<n>", "synthetic run length (50000)"},
        {"scale", "=<n>", "workload size multiplier (1)"},
        {"jobs", "=<n>", "worker threads, 0=auto (1)"},
        {"seed", "=<n>", "kernel seed of every trace (12345)"},
        {"csv-dir", "=<dir>", "CSV output dir (results)"},
        {"json-dir", "=<dir>", "JSON output dir (csv-dir)"},
        {"metrics-out", "=<dir>", "per-point + merged metrics JSON"},
        {"trace-out", "=<dir>", "Chrome trace-event JSON per point"},
        {"sample-interval", "=<cycles>",
         "time-series epoch, 0=off (0); needs --metrics-out"},
        {"profile", "", "phase self-time profile.json; needs --metrics-out"},
        {"progress", "", "live progress on stderr"},
        {"verbose", "", "chatty logging"},
    };
    std::vector<std::string> names = {"csv-dir", "json-dir", "verbose"};
    for (const std::string &f : flags) {
        ANOC_ASSERT(std::any_of(std::begin(kHarnessFlags),
                                std::end(kHarnessFlags),
                                [&](const auto &h) { return f == h.name; }),
                    "no harness flag --", f);
        names.push_back(f);
    }
    auto accepted = [&](const std::string &f) {
        return std::find(names.begin(), names.end(), f) != names.end();
    };

    CliArgs args(argc, argv);
    if (args.has("help")) {
        // The benchmark default is the harness's own set.
        std::string bms;
        for (const auto &bm : benchmarks_) {
            if (!bms.empty())
                bms += ',';
            bms += bm;
        }
        if (benchmarks_ == workload_names())
            bms = "all";
        std::printf("%s\nFlags:\n", what.c_str());
        for (const auto &f : kHarnessFlags)
            if (accepted(f.name))
                std::printf("  --%-32s%s\n",
                            (std::string(f.name) + f.syntax).c_str(),
                            f.help ? f.help
                                   : ("(default " + bms + ")").c_str());
        std::exit(0);
    }
    args.expect(names);

    // A dimension flag replaces the dimension only when given, and a
    // config flag defaults to the value set before fromCli().
    if (args.has("benchmarks"))
        benchmarks_ = parse_benchmark_list(args.getString("benchmarks", ""));
    if (args.has("schemes"))
        schemes_ = parse_scheme_list(args.getString("schemes", ""));
    if (args.has("threshold"))
        thresholds_ = {args.getDouble("threshold", 0.0, kPercentRange)};
    if (args.has("approx-ratio"))
        ratios_ = {args.getDouble("approx-ratio", 0.0, kFractionRange)};
    if (args.has("load"))
        loads_ = {args.getDouble("load", 0.0, kPositiveRange)};
    cfg_.max_records =
        args.getCount<std::size_t>("max-records", cfg_.max_records);
    cfg_.cycles = args.getCount<Cycle>("cycles", cfg_.cycles);
    cfg_.scale = args.getCount<unsigned>("scale", cfg_.scale, 1, kMaxScale);
    cfg_.jobs = args.getCount<unsigned>("jobs", cfg_.jobs);
    cfg_.seed = args.getCount<std::uint64_t>("seed", cfg_.seed);
    cfg_.csv_dir = args.getString("csv-dir", cfg_.csv_dir);
    cfg_.json_dir = args.getString("json-dir", cfg_.json_dir);
    cfg_.metrics_dir = args.getString("metrics-out", cfg_.metrics_dir);
    cfg_.trace_dir = args.getString("trace-out", cfg_.trace_dir);
    cfg_.sample_interval =
        args.getCount<Cycle>("sample-interval", cfg_.sample_interval);
    cfg_.profile = args.getBool("profile", cfg_.profile);
    cfg_.progress = args.getBool("progress", cfg_.progress);
    require_metrics_out(cfg_.profile, cfg_.sample_interval,
                        cfg_.metrics_dir);
    set_verbose(args.getBool("verbose", false));
    cli_flags_ = flags;
    return *this;
}

ExperimentSpec
ExperimentSpec::Builder::build() const
{
    ANOC_ASSERT(!benchmarks_.empty() && !schemes_.empty() &&
                    !thresholds_.empty() && !ratios_.empty() &&
                    !loads_.empty() && !flit_bits_.empty() &&
                    !pmt_entries_.empty(),
                "experiment grid has an empty dimension");
    ExperimentSpec spec;
    spec.cfg_ = cfg_;
    spec.benchmarks_ = benchmarks_;
    spec.schemes_ = schemes_;
    spec.thresholds_ = thresholds_;
    spec.ratios_ = ratios_;
    spec.loads_ = loads_;
    spec.flit_bits_ = flit_bits_;
    spec.pmt_entries_ = pmt_entries_;
    spec.cli_flags_ = cli_flags_;

    // Benchmark-major nesting mirrors the original per-figure loops,
    // so tables read in the familiar order. The hardware coordinates
    // nest innermost: a grid with one value in each keeps the indices
    // (and artifact labels) it has without them.
    for (const auto &bm : benchmarks_)
        for (Scheme s : schemes_)
            for (double th : thresholds_)
                for (double ratio : ratios_)
                    for (double ld : loads_)
                        for (unsigned fb : flit_bits_)
                            for (std::size_t pmt : pmt_entries_) {
                                ExperimentPoint p;
                                p.benchmark = bm;
                                p.scheme = s;
                                p.threshold = th;
                                p.approx_ratio = ratio;
                                p.load = ld;
                                p.flit_bits = fb;
                                p.pmt_entries = pmt;
                                if (keep_ && !keep_(p))
                                    continue;
                                p.index = spec.points_.size();
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
    : spec_(std::move(spec)),
      traces_(spec_.config().scale, spec_.config().seed)
{}

void
Experiment::run()
{
    // Every trace exists before a lane replays it, so lanes only read
    // the library.
    std::vector<std::string> needed;
    for (const auto &p : spec_.points())
        needed.push_back(p.benchmark);
    ExperimentRunner runner(spec_.config().jobs);
    telemetry::PhaseProfiler harness;
    {
        telemetry::PhaseProfiler::Scope gen(
            spec_.config().profile ? &harness : nullptr,
            telemetry::Phase::HarnessTraceGen);
        traces_.prefetch(needed, runner);
    }
    runPoints(
        [this](const ExperimentPoint &pt) {
            return run_replay_point(traces_.get(pt.benchmark), pt,
                                    spec_.config());
        },
        harness);
}

ProgressFn
make_progress(const ExperimentConfig &cfg, const char *unit)
{
    if (!cfg.progress)
        return {};
    return [unit](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "\r[%zu/%zu %s]", done, total, unit);
        if (done == total)
            std::fputc('\n', stderr);
        std::fflush(stderr);
    };
}

void
Experiment::run(const PointFn &fn)
{
    runPoints(fn, telemetry::PhaseProfiler{});
}

void
Experiment::runPoints(const PointFn &fn,
                      const telemetry::PhaseProfiler &harness)
{
    const ExperimentConfig &cfg = spec_.config();
    const auto &points = spec_.points();
    ExperimentRunner runner(cfg.jobs, make_progress(cfg));

    // Each lane writes only the slots of the points it claimed, and
    // the runner joins its lanes before returning: no lock.
    results_.assign(points.size(), PointResult{});
    auto statuses = runner.run(points.size(), [&](std::size_t i) {
        results_[i].replay = fn(points[i]);
        results_[i].ok = true;
    });
    for (std::size_t i = 0; i < statuses.size(); ++i)
        results_[i].error = std::move(statuses[i].error);
    if (failures())
        ANOC_WARN(failures(), " of ", points.size(), " grid points failed");

    // Fold the per-point registries in spec order into one merged
    // dump. Spec-order iteration (not completion order) keeps the file
    // byte-identical across --jobs settings.
    if (!cfg.metrics_dir.empty()) {
        std::vector<std::shared_ptr<const telemetry::MetricRegistry>> parts;
        parts.reserve(points.size());
        for (const PointResult &pr : results_)
            parts.push_back(pr.ok ? pr.replay.metrics : nullptr);
        telemetry::write_merged_metrics(cfg.metrics_dir, "metrics.json",
                                        parts);

        // Same spec-order discipline for the sweep-level QoR report:
        // ErrorProfile::merge commutes, so qor.json is byte-identical
        // at any --jobs. profile.json is wall-clock and exempt.
        ReportParts<telemetry::ErrorProfile> qor;
        ReportParts<telemetry::PhaseProfiler> prof;
        qor.reserve(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            const PointResult &pr = results_[i];
            const std::string label = telemetry::PointTelemetry::pointLabel(
                points[i].index, points[i].benchmark,
                to_string(points[i].scheme));
            qor.emplace_back(label, pr.ok ? pr.replay.qor : nullptr);
            if (cfg.profile)
                prof.emplace_back(label, pr.ok ? pr.replay.profile : nullptr);
        }
        write_report(cfg.metrics_dir, "qor", qor);
        if (cfg.profile)
            write_report(cfg.metrics_dir, "profile", prof, &harness);
    }
}

std::size_t
Experiment::failures() const
{
    return static_cast<std::size_t>(
        std::count_if(results_.begin(), results_.end(),
                      [](const PointResult &pr) { return !pr.ok; }));
}

const PointResult &
Experiment::result(const PointQuery &q) const
{
    return resultAt(spec_.indexOf(q));
}

const PointResult &
Experiment::resultAt(std::size_t index) const
{
    ANOC_ASSERT(index < results_.size(), "no result for point ", index,
                " (has Experiment::run() been called?)");
    return results_[index];
}

} // namespace approxnoc::harness
