/**
 * @file
 * Telemetry subsystem tests: hierarchical registry semantics and merge
 * determinism, epoch sampling, Chrome trace-event output (required
 * fields, per-track timestamp monotonicity — checked through a minimal
 * JSON parser, no external dependency), end-to-end replay artifacts and
 * the jobs-count independence of every dumped byte.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "sim/simulator.h"
#include "telemetry/error_profile.h"
#include "telemetry/metric_registry.h"
#include "telemetry/packet_tracer.h"
#include "telemetry/phase_profiler.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"

using namespace approxnoc;
using namespace approxnoc::telemetry;

namespace {

// ------------------------------------------------------------------ JSON
// A minimal recursive-descent JSON reader, just enough to validate the
// files the telemetry subsystem writes.

struct Json {
    enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    bool has(const std::string &k) const { return obj.count(k) != 0; }
    const Json &at(const std::string &k) const { return obj.at(k); }
};

struct JsonParser {
    const std::string &s;
    std::size_t i = 0;
    bool failed = false;

    explicit JsonParser(const std::string &text) : s(text) {}

    void ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n' ||
                                s[i] == '\t' || s[i] == '\r'))
            ++i;
    }
    bool eat(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }
    Json fail()
    {
        failed = true;
        return Json{};
    }

    Json parse()
    {
        ws();
        if (i >= s.size())
            return fail();
        char c = s[i];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            i += 4;
            return Json{};
        }
        return number();
    }

    Json object()
    {
        Json j;
        j.kind = Json::Obj;
        if (!eat('{'))
            return fail();
        if (eat('}'))
            return j;
        do {
            Json key = string();
            if (failed || !eat(':'))
                return fail();
            j.obj[key.str] = parse();
            if (failed)
                return fail();
        } while (eat(','));
        if (!eat('}'))
            return fail();
        return j;
    }

    Json array()
    {
        Json j;
        j.kind = Json::Arr;
        if (!eat('['))
            return fail();
        if (eat(']'))
            return j;
        do {
            j.arr.push_back(parse());
            if (failed)
                return fail();
        } while (eat(','));
        if (!eat(']'))
            return fail();
        return j;
    }

    Json string()
    {
        Json j;
        j.kind = Json::Str;
        if (!eat('"'))
            return fail();
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\' && i + 1 < s.size())
                ++i;
            j.str.push_back(s[i++]);
        }
        if (!eat('"'))
            return fail();
        return j;
    }

    Json boolean()
    {
        Json j;
        j.kind = Json::Bool;
        if (s.compare(i, 4, "true") == 0) {
            j.b = true;
            i += 4;
        } else if (s.compare(i, 5, "false") == 0) {
            i += 5;
        } else {
            return fail();
        }
        return j;
    }

    Json number()
    {
        Json j;
        j.kind = Json::Num;
        std::size_t start = i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '-' || s[i] == '+' || s[i] == '.' || s[i] == 'e' ||
                s[i] == 'E'))
            ++i;
        if (i == start)
            return fail();
        j.num = std::stod(s.substr(start, i - start));
        return j;
    }
};

Json
parse_json(const std::string &text, bool *ok = nullptr)
{
    JsonParser p(text);
    Json j = p.parse();
    p.ws();
    bool good = !p.failed && p.i == text.size();
    if (ok)
        *ok = good;
    EXPECT_TRUE(good) << "invalid JSON (" << text.size() << " bytes)";
    return j;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing file " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Every trace event must carry name/ph/ts/pid/tid, and timestamps
 * must be monotonic within each (pid, tid) track. */
void
validate_trace_events(const Json &root)
{
    ASSERT_EQ(root.kind, Json::Obj);
    ASSERT_TRUE(root.has("traceEvents"));
    const Json &events = root.at("traceEvents");
    ASSERT_EQ(events.kind, Json::Arr);
    EXPECT_FALSE(events.arr.empty());

    std::map<std::pair<double, double>, double> last_ts;
    for (const Json &e : events.arr) {
        ASSERT_EQ(e.kind, Json::Obj);
        EXPECT_TRUE(e.has("name"));
        EXPECT_TRUE(e.has("ph"));
        EXPECT_TRUE(e.has("pid"));
        EXPECT_TRUE(e.has("tid"));
        const std::string &ph = e.at("ph").str;
        if (ph == "M")
            continue; // metadata events carry no ts
        ASSERT_TRUE(e.has("ts"));
        if (ph == "X") {
            EXPECT_TRUE(e.has("dur"));
        }
        auto track = std::make_pair(e.at("pid").num, e.at("tid").num);
        auto it = last_ts.find(track);
        if (it != last_ts.end()) {
            EXPECT_GE(e.at("ts").num, it->second)
                << "timestamps not monotonic on tid " << track.second;
        }
        last_ts[track] = e.at("ts").num;
    }
}

} // namespace

// -------------------------------------------------------- MetricRegistry

TEST(MetricRegistry, ScopedPathsAndCreation)
{
    MetricRegistry reg;
    MetricScope router = reg.scope("router").scope("3");
    router.counter("vc_stall").inc(7);
    router.stat("occupancy").add(2.0);

    EXPECT_EQ(reg.counter("router.3.vc_stall").value(), 7u);
    EXPECT_EQ(reg.stat("router.3.occupancy").count(), 1u);
    EXPECT_EQ(router.prefix(), "router.3");
}

TEST(MetricRegistry, HistogramShapeFixedAtFirstAccess)
{
    MetricRegistry reg;
    Histogram &h = reg.histogram("lat", 2.0, 8);
    h.add(5.0);
    // Later access with different shape args returns the same histogram.
    EXPECT_EQ(&reg.histogram("lat", 99.0, 3), &h);
    EXPECT_EQ(reg.histogram("lat").count(), 1u);
    EXPECT_EQ(reg.histogram("lat").bucketWidth(), 2.0);
}

TEST(MetricRegistry, MergeOrderDoesNotChangeDump)
{
    auto fill = [](MetricRegistry &r, double scale) {
        r.counter("a.hits").inc(static_cast<std::uint64_t>(3 * scale));
        r.stat("b.lat").add(1.5 * scale);
        r.stat("b.lat").add(2.5 * scale);
        r.histogram("c.h", 1.0, 4).add(scale);
    };
    MetricRegistry r1, r2, r3;
    fill(r1, 1.0);
    fill(r2, 2.0);
    fill(r3, 3.0);

    MetricRegistry fwd, rev;
    fwd.merge(r1);
    fwd.merge(r2);
    fwd.merge(r3);
    rev.merge(r3);
    rev.merge(r1);
    rev.merge(r2);

    std::ostringstream a, b;
    fwd.writeJson(a);
    rev.writeJson(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(fwd.counter("a.hits").value(), 18u);
    EXPECT_EQ(fwd.stat("b.lat").count(), 6u);
}

TEST(MetricRegistry, JsonAndCsvAreWellFormed)
{
    MetricRegistry reg;
    reg.counter("x.count").inc(2);
    reg.stat("y.val").add(1.0);
    reg.histogram("z.h", 1.0, 4).add(2.0);

    std::ostringstream js;
    reg.writeJson(js);
    Json root = parse_json(js.str());
    ASSERT_EQ(root.kind, Json::Obj);
    EXPECT_EQ(root.at("counters").at("x.count").num, 2.0);
    EXPECT_EQ(root.at("stats").at("y.val").at("n").num, 1.0);
    EXPECT_EQ(root.at("histograms").at("z.h").at("count").num, 1.0);

    std::ostringstream cs;
    reg.writeCsv(cs);
    EXPECT_NE(cs.str().find("path,kind,count,value,min,max"),
              std::string::npos);
    EXPECT_NE(cs.str().find("x.count,counter,2"), std::string::npos);
}

// --------------------------------------------------------------- Sampler

TEST(Sampler, SamplesOnEpochBoundaries)
{
    Simulator sim;
    Sampler s(10);
    int ticks = 0;
    s.addProbe("ticks", [&] { return static_cast<double>(ticks); });
    sim.add(&s);

    // Count cycles with a probe-visible counter.
    class Ticker : public Clocked
    {
      public:
        explicit Ticker(int &n) : Clocked("ticker"), n_(n) {}
        void evaluate(Cycle) override {}
        void advance(Cycle) override { ++n_; }

      private:
        int &n_;
    } ticker(ticks);
    sim.add(&ticker);

    sim.run(35);
    // Epochs at cycles 0, 10, 20, 30.
    ASSERT_EQ(s.rows(), 4u);
    EXPECT_EQ(s.sampleCycles()[0], 0u);
    EXPECT_EQ(s.sampleCycles()[3], 30u);

    s.sample(35);
    EXPECT_EQ(s.rows(), 5u);

    std::ostringstream cs;
    s.writeCsv(cs);
    EXPECT_NE(cs.str().find("cycle,ticks"), std::string::npos);

    std::ostringstream js;
    s.writeJson(js);
    Json root = parse_json(js.str());
    ASSERT_EQ(root.at("rows").arr.size(), 5u);
    EXPECT_EQ(root.at("columns").arr.size(), 2u);
}

// ---------------------------------------------------------- PacketTracer

TEST(PacketTracer, RequiredFieldsAndPerTrackMonotonicity)
{
    PacketTracer t(7);
    t.setProcessName("test");
    t.setThreadName(0, "node 0");
    // Record out of order on two tracks: the writer must sort.
    t.span(0, "network", 50, 20, "{\"pkt\": 1}");
    t.instant(1000, "hop", 10);
    t.span(0, "queue", 5, 45);
    t.instant(1000, "hop", 3);

    std::ostringstream os;
    t.writeJson(os);
    Json root = parse_json(os.str());
    validate_trace_events(root);

    // Metadata first, then payload events per track in time order.
    const auto &ev = root.at("traceEvents").arr;
    ASSERT_EQ(ev.size(), 6u);
    EXPECT_EQ(ev[0].at("ph").str, "M");
    EXPECT_EQ(ev[1].at("ph").str, "M");
    EXPECT_EQ(ev[2].at("name").str, "queue");
    EXPECT_EQ(ev[2].at("pid").num, 7.0);
}

TEST(PacketTracer, DropsBeyondCapInsteadOfGrowing)
{
    PacketTracer t(0, /*max_events=*/4);
    for (int i = 0; i < 10; ++i)
        t.instant(0, "e", static_cast<Cycle>(i));
    EXPECT_EQ(t.events(), 4u);
    EXPECT_EQ(t.dropped(), 6u);
}

TEST(PacketTracer, TrackNumbering)
{
    EXPECT_EQ(PacketTracer::nodeTrack(5), 5u);
    EXPECT_EQ(PacketTracer::routerTrack(5), 1005u);
}

// ---------------------------------------------------------- ErrorProfile

TEST(ErrorProfile, MergeIsOrderIndependent)
{
    auto fill = [](ErrorProfile &p, int salt) {
        for (int i = 0; i < 50; ++i) {
            double e = (i % 7 == 0)
                           ? 0.0
                           : (i % 2 ? 1.0 : -1.0) * 1e-6 *
                                 static_cast<double>(i + salt);
            p.record(static_cast<NodeId>(i % 4),
                     static_cast<NodeId>((i + 1) % 4), e);
        }
    };
    ErrorProfile a1, a2, a3;
    fill(a1, 1);
    fill(a2, 17);
    fill(a3, 400);

    ErrorProfile fwd, rev;
    fwd.merge(a1);
    fwd.merge(a2);
    fwd.merge(a3);
    rev.merge(a3);
    rev.merge(a1);
    rev.merge(a2);

    std::ostringstream x, y;
    fwd.writeJson(x);
    rev.writeJson(y);
    EXPECT_EQ(x.str(), y.str());
    EXPECT_EQ(fwd.samples(), 150u);
    EXPECT_EQ(fwd.zeroCount(), rev.zeroCount());
    EXPECT_EQ(fwd.mean(), rev.mean());
    EXPECT_EQ(fwd.maxAbs(), rev.maxAbs());

    Json root = parse_json(x.str());
    EXPECT_EQ(root.at("schema").str, "approxnoc-qor-profile-v1");
    EXPECT_EQ(root.at("total").at("count").num, 150.0);
    EXPECT_TRUE(root.at("flows").has("0->1"));
}

TEST(ErrorProfile, LogBucketEdgeCases)
{
    // Exact zeros are counted separately, never bucketed.
    EXPECT_EQ(ErrorProfile::bucketOf(0.0), -1);
    // Below the log floor clamps into the first bucket.
    EXPECT_EQ(ErrorProfile::bucketOf(1e-300), 0);
    EXPECT_EQ(ErrorProfile::bucketOf(1e-16), 0);
    // A max-magnitude miss (|e| >= 1) lands in the overflow bucket.
    EXPECT_EQ(ErrorProfile::bucketOf(1.0), ErrorProfile::kBuckets);
    EXPECT_EQ(ErrorProfile::bucketOf(1e30), ErrorProfile::kBuckets);
    // An exact-threshold error (1%) falls in an interior bucket whose
    // edges bracket it (tolerance for log10/pow rounding at the edge).
    const double e = 0.01;
    const int b = ErrorProfile::bucketOf(e);
    ASSERT_GT(b, 0);
    ASSERT_LT(b, ErrorProfile::kBuckets);
    EXPECT_LE(ErrorProfile::bucketLowerEdge(b), e * (1.0 + 1e-9));
    EXPECT_GT(ErrorProfile::bucketLowerEdge(b + 1), e);
    EXPECT_EQ(ErrorProfile::bucketLowerEdge(0), 0.0);
    EXPECT_EQ(ErrorProfile::bucketLowerEdge(ErrorProfile::kBuckets), 1.0);
}

TEST(ErrorProfile, ZeroAndExtremeRecordsAreCountedExactly)
{
    ErrorProfile p;
    p.record(0, 1, 0.0);  // exact word: zero error
    p.record(0, 1, 1e9);  // pathological relative error
    EXPECT_EQ(p.samples(), 2u);
    EXPECT_EQ(p.zeroCount(), 1u);
    EXPECT_EQ(p.maxAbs(), 1e9); // extremes are exact, not clamped
    // The mean accumulator clamps |e| so one wild sample cannot poison
    // it beyond kClampAbs.
    EXPECT_LE(p.meanAbs(), ErrorProfile::kClampAbs);
    // Half the mass is exact: the median |e| is zero.
    EXPECT_EQ(p.percentileAbs(0.5), 0.0);
}

TEST(ErrorProfile, ExactThresholdErrorIsNotAViolation)
{
    ErrorProfile p;
    p.setDebugLimit(0.01);
    p.record(0, 1, 0.01); // exactly at the armed limit: allowed
    p.record(0, 1, -0.01);
    EXPECT_EQ(p.violations(), 0u);
    EXPECT_EQ(p.samples(), 2u);
    EXPECT_EQ(p.mean(), 0.0); // fixed point: +e and -e cancel exactly
    // The mean is exact at the accumulator's 2^-32 resolution.
    EXPECT_NEAR(p.meanAbs(), 0.01, 1.0 / 4294967296.0);
}

#ifdef NDEBUG
// In debug builds record() asserts on a violation; the counting path
// is only observable in release builds.
TEST(ErrorProfile, ViolationsCountBeyondArmedLimit)
{
    ErrorProfile p;
    p.setDebugLimit(0.01);
    p.record(0, 1, 0.02);
    EXPECT_EQ(p.violations(), 1u);
}
#endif

// ---------------------------------------------------------- PhaseProfiler

TEST(PhaseProfiler, ScopesAccumulateAndMergeByName)
{
    PhaseProfiler p;
    auto a = p.definePhase("sim.router");
    auto b = p.definePhase("sim.ni");
    EXPECT_EQ(p.definePhase("sim.router"), a); // idempotent
    p.add(a, 100, 2);
    p.add(b, 50);
    {
        PhaseProfiler::Scope s(&p, a); // live scope: adds >= 0 ns
    }
    {
        PhaseProfiler::Scope off(nullptr, a); // inert: must not count
    }
    EXPECT_EQ(p.phases(), 2u);

    PhaseProfiler q;
    q.add(q.definePhase("sim.ni"), 25, 1);
    q.merge(p);
    auto rows = q.snapshot();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "sim.ni"); // sorted by name
    EXPECT_EQ(rows[0].ns, 75u);
    EXPECT_EQ(rows[0].calls, 2u);
    EXPECT_EQ(rows[1].name, "sim.router");
    EXPECT_GE(rows[1].ns, 100u);
    EXPECT_EQ(rows[1].calls, 3u);

    std::ostringstream os;
    q.writeJson(os);
    Json root = parse_json(os.str());
    EXPECT_EQ(root.at("schema").str, "approxnoc-phase-profile-v1");
    EXPECT_TRUE(root.at("phases").has("sim.router"));
    EXPECT_EQ(root.at("phases").at("sim.ni").at("calls").num, 2.0);
}

// ------------------------------------------------------------- Telemetry

TEST(Telemetry, SanitizeComponent)
{
    EXPECT_EQ(sanitize_component("DI-VAXX"), "di_vaxx");
    EXPECT_EQ(sanitize_component("blackscholes"), "blackscholes");
    EXPECT_EQ(sanitize_component("a b/c"), "a_b_c");
}

TEST(Telemetry, OptionsGateCollectors)
{
    TelemetryOptions off;
    EXPECT_FALSE(off.enabled());
    PointTelemetry none(off);
    EXPECT_EQ(none.tracer(), nullptr);
    EXPECT_EQ(none.sampler(), nullptr);
    ASSERT_NE(none.metrics(), nullptr);

    TelemetryOptions on;
    on.metrics_dir = ::testing::TempDir();
    on.trace_dir = ::testing::TempDir();
    on.sample_interval = 100;
    PointTelemetry all(on);
    EXPECT_NE(all.tracer(), nullptr);
    ASSERT_NE(all.sampler(), nullptr);
    EXPECT_EQ(all.sampler()->interval(), 100u);

    // Sampling requires a metrics sink.
    TelemetryOptions trace_only;
    trace_only.trace_dir = ::testing::TempDir();
    trace_only.sample_interval = 100;
    PointTelemetry to(trace_only);
    EXPECT_EQ(to.sampler(), nullptr);
}

TEST(Telemetry, PointLabelIsWorkerIndependent)
{
    EXPECT_EQ(PointTelemetry::pointLabel(3, "blackscholes", "FP-VAXX"),
              "p3_blackscholes_fp_vaxx");
}

// ----------------------------------------------------------- End to end

namespace {

/** Tiny replay with full telemetry into @p dir; returns the result. */
harness::ReplayResult
replay_with_telemetry(const std::string &dir, const std::string &label)
{
    using namespace harness;
    TraceLibrary lib;
    ReplayJob job;
    job.scheme = Scheme::FpVaxx;
    job.max_records = 300;
    job.telemetry.metrics_dir = dir;
    job.telemetry.trace_dir = dir;
    job.telemetry.sample_interval = 100;
    job.telemetry.label = label;
    return run_replay(lib.get("blackscholes"), job);
}

} // namespace

TEST(TelemetryEndToEnd, ReplayProducesValidArtifacts)
{
    const std::string dir = ::testing::TempDir() + "telemetry_e2e";
    harness::ReplayResult r = replay_with_telemetry(dir, "e2e");
    ASSERT_NE(r.metrics, nullptr);

    // The trace validates: required fields + monotonic tracks.
    Json trace = parse_json(slurp(dir + "/e2e.trace.json"));
    validate_trace_events(trace);

    // The metrics dump has the instrumented hierarchy.
    Json metrics = parse_json(slurp(dir + "/e2e.metrics.json"));
    const Json &counters = metrics.at("counters");
    EXPECT_TRUE(counters.has("codec.fp_vaxx.blocks_encoded"));
    EXPECT_TRUE(counters.has("router.0.buffer_writes"));
    EXPECT_TRUE(counters.has("ni.0.packets_injected"));
    EXPECT_TRUE(counters.has("sim.elapsed_cycles"));
    EXPECT_TRUE(metrics.at("stats").has("net.total_latency"));
    EXPECT_TRUE(metrics.at("histograms").has("net.approx_error"));

    // Delivered packets appear in both views identically.
    EXPECT_EQ(static_cast<std::uint64_t>(
                  counters.at("net.packets_delivered").num),
              r.packets);

    // The time-series has rows and the declared columns.
    Json ts = parse_json(slurp(dir + "/e2e.timeseries.json"));
    EXPECT_GT(ts.at("rows").arr.size(), 1u);
    EXPECT_GT(ts.at("columns").arr.size(), 1u);

    // The QoR artifact parses and, whenever any word was approximated,
    // its sample count surfaces in the metrics under qor.<scheme>.
    Json qor = parse_json(slurp(dir + "/e2e.qor.json"));
    EXPECT_EQ(qor.at("schema").str, "approxnoc-qor-profile-v1");
    if (qor.at("total").at("count").num > 0) {
        ASSERT_TRUE(counters.has("qor.fp_vaxx.samples"));
        EXPECT_EQ(counters.at("qor.fp_vaxx.samples").num,
                  qor.at("total").at("count").num);
    }
}

TEST(TelemetryEndToEnd, DisabledTelemetryLeavesNoTrace)
{
    using namespace harness;
    TraceLibrary lib;
    ReplayJob job;
    job.scheme = Scheme::Baseline;
    job.max_records = 200;
    ReplayResult r = run_replay(lib.get("blackscholes"), job);
    EXPECT_EQ(r.metrics, nullptr);
}

TEST(TelemetryEndToEnd, CompareRunTraceValidates)
{
    if (!std::ifstream(APPROXNOC_SIM_TOOL).good())
        GTEST_SKIP() << "approxnoc_sim not built";
    const std::string dir = ::testing::TempDir() + "telemetry_compare";
    const std::string cmd =
        std::string(APPROXNOC_SIM_TOOL) +
        " --compare=Baseline,FP-VAXX --jobs=2 --cycles=2000 --quiet"
        " --metrics-out=" + dir + " --trace-out=" + dir +
        " --sample-interval=500 > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    for (const char *scheme : {"baseline", "fp_vaxx"}) {
        Json trace =
            parse_json(slurp(dir + "/" + scheme + ".trace.json"));
        validate_trace_events(trace);
        bool ok = false;
        parse_json(slurp(dir + "/" + scheme + ".metrics.json"), &ok);
        EXPECT_TRUE(ok) << scheme;
    }
}

/** Every per-point artifact is byte-identical at any job count. Each
 * point owns its tracer, profiler, error profile and counters; the CI
 * TSan job runs this test to show that no worker shares them. */
TEST(TelemetryEndToEnd, MetricsAreBitIdenticalAcrossJobCounts)
{
    using namespace harness;
    auto spec = [](unsigned jobs, const std::string &dir) {
        return ExperimentSpec::Builder()
            .benchmarks({"blackscholes", "swaptions"})
            .schemes({Scheme::Baseline, Scheme::FpVaxx})
            .maxRecords(300)
            .jobs(jobs)
            .metricsDir(dir)
            .traceDir(dir)
            .sampleInterval(200)
            .profile(true)
            .build();
    };
    const std::string d1 = ::testing::TempDir() + "telemetry_j1";
    const std::string d4 = ::testing::TempDir() + "telemetry_j4";

    Experiment serial(spec(1, d1));
    serial.run();
    Experiment parallel(spec(4, d4));
    parallel.run();

    // Merged dump: byte-identical.
    EXPECT_EQ(slurp(d1 + "/metrics.json"), slurp(d4 + "/metrics.json"));
    bool ok = false;
    parse_json(slurp(d1 + "/metrics.json"), &ok);
    EXPECT_TRUE(ok);

    // The merged QoR report honors the same contract.
    EXPECT_EQ(slurp(d1 + "/qor.json"), slurp(d4 + "/qor.json"));
    parse_json(slurp(d1 + "/qor.json"), &ok);
    EXPECT_TRUE(ok);

    // Every per-point artifact: same names, same bytes.
    for (const auto &pt : serial.spec().points()) {
        std::string label = PointTelemetry::pointLabel(
            pt.index, pt.benchmark, to_string(pt.scheme));
        EXPECT_EQ(slurp(d1 + "/" + label + ".metrics.json"),
                  slurp(d4 + "/" + label + ".metrics.json"))
            << label;
        EXPECT_EQ(slurp(d1 + "/" + label + ".timeseries.csv"),
                  slurp(d4 + "/" + label + ".timeseries.csv"))
            << label;
        EXPECT_EQ(slurp(d1 + "/" + label + ".qor.json"),
                  slurp(d4 + "/" + label + ".qor.json"))
            << label;
        const std::string trace = slurp(d1 + "/" + label + ".trace.json");
        EXPECT_FALSE(trace.empty()) << label;
        EXPECT_EQ(trace, slurp(d4 + "/" + label + ".trace.json")) << label;
        // Profiles are wall-clock: written, never compared.
        EXPECT_FALSE(slurp(d1 + "/" + label + ".profile.json").empty())
            << label;
    }
}
