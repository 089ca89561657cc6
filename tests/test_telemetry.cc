/**
 * @file
 * Telemetry subsystem tests: hierarchical registry semantics and merge
 * determinism, epoch sampling, Chrome trace-event output (required
 * fields, per-track timestamp monotonicity — checked through a minimal
 * JSON parser, no external dependency), end-to-end replay artifacts and
 * the jobs-count independence of every dumped byte.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
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

/** A new measurement window forgets the samples, every flow's among
 * them, but a fault before it stays counted and the limit stays armed. */
TEST(ErrorProfile, ClearSamplesKeepsLimitAndViolations)
{
    ErrorProfile p;
    p.setDebugLimit(0.01);
    p.record(0, 1, 0.005);
    p.record(2, 3, -0.02); // a violation before the window
    p.clearSamples();
    EXPECT_EQ(p.samples(), 0u);
    EXPECT_EQ(p.maxAbs(), 0.0);
    EXPECT_EQ(p.percentileAbs(1.0), 0.0);
    EXPECT_EQ(p.violations(), 1u);

    p.record(0, 1, 0.03); // still beyond the armed limit
    EXPECT_EQ(p.violations(), 2u);
    EXPECT_EQ(p.samples(), 1u);
    EXPECT_NEAR(p.mean(), 0.03, 1.0 / 4294967296.0);
    std::ostringstream os;
    p.writeJson(os);
    EXPECT_NE(os.str().find("\"0->1\""), std::string::npos);
    EXPECT_EQ(os.str().find("\"2->3\""), std::string::npos);
}
#endif

// ---------------------------------------------------------- PhaseProfiler

TEST(PhaseProfiler, ScopesAccumulateAndMergeByName)
{
    PhaseProfiler p;
    p.add(Phase::SimRouter, 100, 2);
    p.add(Phase::SimNi, 50);
    {
        PhaseProfiler::Scope s(&p, Phase::SimRouter); // live: adds >= 0 ns
    }
    {
        PhaseProfiler::Scope off(nullptr, Phase::SimRouter); // inert
    }

    PhaseProfiler q;
    q.add(Phase::SimNi, 25, 1);
    q.merge(p);
    auto rows = q.snapshot();
    ASSERT_EQ(rows.size(), kPhaseCount); // every phase, sorted by name
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].name, kPhaseNames[i]);
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_LT(rows[i - 1].name, rows[i].name);
    const auto &ni = rows[static_cast<std::size_t>(Phase::SimNi)];
    EXPECT_EQ(ni.name, "sim.ni");
    EXPECT_EQ(ni.ns, 75u);
    EXPECT_EQ(ni.calls, 2u);
    const auto &router = rows[static_cast<std::size_t>(Phase::SimRouter)];
    EXPECT_EQ(router.name, "sim.router");
    EXPECT_GE(router.ns, 100u);
    EXPECT_EQ(router.calls, 3u);

    std::ostringstream os;
    q.writeJson(os);
    Json root = parse_json(os.str());
    EXPECT_EQ(root.at("schema").str, "approxnoc-phase-profile-v1");
    EXPECT_TRUE(root.at("phases").has("sim.router"));
    EXPECT_EQ(root.at("phases").at("sim.ni").at("calls").num, 2.0);
}

TEST(PhaseProfiler, NestedScopeTimeIsChargedOnce)
{
    // 2 ms in an outer phase, 4 ms in a scope nested inside it, then
    // 2 ms more in the outer phase: 8 ms of wall time, charged once.
    using namespace std::chrono;
    using namespace std::chrono_literals;
    PhaseProfiler p;
    const auto t0 = steady_clock::now();
    {
        PhaseProfiler::Scope outer(&p, Phase::SimOther);
        std::this_thread::sleep_for(2ms);
        {
            PhaseProfiler::Scope inner(&p, Phase::NiEncode);
            std::this_thread::sleep_for(4ms);
        }
        std::this_thread::sleep_for(2ms);
    }
    const auto wall = static_cast<std::uint64_t>(
        duration_cast<nanoseconds>(steady_clock::now() - t0).count());

    const auto rows = p.snapshot();
    const auto &outer = rows[static_cast<std::size_t>(Phase::SimOther)];
    const auto &inner = rows[static_cast<std::size_t>(Phase::NiEncode)];
    EXPECT_EQ(outer.calls, 1u);
    EXPECT_EQ(inner.calls, 1u);
    EXPECT_EQ(p.totalNs(), outer.ns + inner.ns);
    EXPECT_LE(p.totalNs(), wall);
    EXPECT_GE(inner.ns, 4'000'000u);
    // The outer phase keeps its own 4 ms and gives up the nested time.
    EXPECT_GE(outer.ns, 4'000'000u);
    EXPECT_LE(outer.ns, wall - inner.ns);
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

/** One blackscholes replay point of @p scheme under @p cfg. */
harness::ReplayResult
replay_point(Scheme scheme, const harness::ExperimentConfig &cfg)
{
    using namespace harness;
    TraceLibrary lib;
    ExperimentRunner runner;
    lib.prefetch({"blackscholes"}, runner);
    ExperimentPoint pt;
    pt.benchmark = "blackscholes";
    pt.scheme = scheme;
    return run_replay_point(lib.get("blackscholes"), pt, cfg);
}

} // namespace

TEST(TelemetryEndToEnd, ReplayProducesValidArtifacts)
{
    const std::string dir = ::testing::TempDir() + "telemetry_e2e";
    harness::ExperimentConfig cfg;
    cfg.max_records = 300;
    cfg.metrics_dir = dir;
    cfg.trace_dir = dir;
    cfg.sample_interval = 100;
    harness::ReplayResult r = replay_point(Scheme::FpVaxx, cfg);
    ASSERT_NE(r.metrics, nullptr);
    const std::string e2e = dir + "/p0_blackscholes_fp_vaxx"; // point 0

    // The trace validates: required fields + monotonic tracks.
    Json trace = parse_json(slurp(e2e + ".trace.json"));
    validate_trace_events(trace);

    // The metrics dump has the instrumented hierarchy.
    Json metrics = parse_json(slurp(e2e + ".metrics.json"));
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
    Json ts = parse_json(slurp(e2e + ".timeseries.json"));
    EXPECT_GT(ts.at("rows").arr.size(), 1u);
    EXPECT_GT(ts.at("columns").arr.size(), 1u);

    // The QoR artifact parses and, whenever any word was approximated,
    // its sample count surfaces in the metrics under qor.<scheme>.
    Json qor = parse_json(slurp(e2e + ".qor.json"));
    EXPECT_EQ(qor.at("schema").str, "approxnoc-qor-profile-v1");
    if (qor.at("total").at("count").num > 0) {
        ASSERT_TRUE(counters.has("qor.fp_vaxx.samples"));
        EXPECT_EQ(counters.at("qor.fp_vaxx.samples").num,
                  qor.at("total").at("count").num);
    }
}

TEST(TelemetryEndToEnd, DisabledTelemetryLeavesNoTrace)
{
    harness::ExperimentConfig cfg;
    cfg.max_records = 200;
    EXPECT_EQ(replay_point(Scheme::Baseline, cfg).metrics, nullptr);
}

/** The network counts each data block once where its NI encodes it
 * and once where it is delivered, and every encoded word lands in
 * exactly one of the hit/approx/raw counts, under every scheme. */
TEST(TelemetryEndToEnd, CodecCountersMatchDeliveries)
{
    for (Scheme scheme : kAllSchemes) {
        harness::ExperimentConfig cfg;
        cfg.max_records = 1000;
        cfg.metrics_dir = ::testing::TempDir() + "telemetry_codec_counts";
        harness::ReplayResult r = replay_point(scheme, cfg);
        ASSERT_NE(r.metrics, nullptr);
        const auto &c = r.metrics->counters();
        const std::string cs =
            "codec." + sanitize_component(to_string(scheme));
        auto value = [&](const std::string &path) {
            auto it = c.find(path);
            EXPECT_NE(it, c.end()) << path;
            return it == c.end() ? 0 : it->second.value();
        };
        const std::uint64_t delivered = value("net.data_packets_delivered");
        EXPECT_GT(delivered, 0u) << cs;
        EXPECT_EQ(value(cs + ".blocks_encoded"), delivered) << cs;
        EXPECT_EQ(value(cs + ".blocks_decoded"), delivered) << cs;
        EXPECT_EQ(value(cs + ".hit_exact") + value(cs + ".hit_approx") +
                      value(cs + ".miss_raw"),
                  value(cs + ".words_encoded"))
            << cs;
        EXPECT_GT(value(cs + ".bits_out"), 0u) << cs;
    }
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

/** approxnoc_sim's compare mode writes the same metrics and QoR bytes
 * at --jobs=1 and --jobs=4. (The suite keeps the name it had when it
 * also compared the removed SIMD dispatch settings.) */
TEST(SimdTool, ArtifactsByteIdenticalAcrossSimdAndJobs)
{
    if (!std::ifstream(APPROXNOC_SIM_TOOL).good())
        GTEST_SKIP() << "approxnoc_sim not built";
    std::vector<std::string> dirs;
    for (const char *jobs : {"1", "4"}) {
        const std::string dir =
            ::testing::TempDir() + "sim_tool_j" + jobs;
        std::string cmd = std::string(APPROXNOC_SIM_TOOL) +
                          " --compare=DI-VAXX,FP-VAXX --cycles=2000"
                          " --metrics-out=" + dir +
                          " --jobs=" + jobs + " > /dev/null 2>&1";
        ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
        dirs.push_back(dir);
    }
    for (const char *f : {"di_vaxx.qor.json", "di_vaxx.metrics.json",
                          "fp_vaxx.qor.json", "fp_vaxx.metrics.json"}) {
        std::string base = slurp(dirs[0] + "/" + f);
        ASSERT_FALSE(base.empty()) << f;
        EXPECT_EQ(base, slurp(dirs[1] + "/" + f)) << f;
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

TEST(TelemetryEndToEnd, ProfilingLeavesArtifactsUnchanged)
{
    using namespace harness;
    auto spec = [](bool profile, const std::string &dir) {
        return ExperimentSpec::Builder()
            .benchmarks({"blackscholes"})
            .schemes({Scheme::Baseline, Scheme::DiVaxx, Scheme::FpVaxx})
            .maxRecords(300)
            .metricsDir(dir)
            .traceDir(dir)
            .sampleInterval(200)
            .profile(profile)
            .build();
    };
    const std::string off = ::testing::TempDir() + "telemetry_prof_off";
    const std::string on = ::testing::TempDir() + "telemetry_prof_on";

    Experiment plain(spec(false, off));
    plain.run();
    Experiment profiled(spec(true, on));
    profiled.run();

    for (const char *f : {"/metrics.json", "/qor.json"}) {
        const std::string bytes = slurp(off + f);
        EXPECT_FALSE(bytes.empty()) << f;
        EXPECT_EQ(bytes, slurp(on + f)) << f;
    }
    for (const auto &pt : plain.spec().points()) {
        const std::string label = PointTelemetry::pointLabel(
            pt.index, pt.benchmark, to_string(pt.scheme));
        for (const char *ext : {".metrics.json", ".timeseries.csv",
                                ".timeseries.json", ".qor.json",
                                ".trace.json"}) {
            const std::string bytes = slurp(off + "/" + label + ext);
            EXPECT_FALSE(bytes.empty()) << label << ext;
            EXPECT_EQ(bytes, slurp(on + "/" + label + ext)) << label << ext;
        }
        EXPECT_FALSE(std::ifstream(off + "/" + label + ".profile.json"));
    }

    // The merged phases are self time: they add up to total_ns.
    Json merged = parse_json(slurp(on + "/profile.json")).at("merged");
    double sum = 0;
    for (const auto &[name, ph] : merged.at("phases").obj)
        sum += ph.at("ns").num;
    EXPECT_EQ(sum, merged.at("total_ns").num);
    EXPECT_GT(sum, 0.0);
}

TEST(TelemetryEndToEnd, ProfileTimesTraceGeneration)
{
    // Experiment::run() generates the grid's traces before any point
    // replays; under --profile that stage is the harness.trace_gen
    // phase of the merged profile, timed once per run.
    using namespace harness;
    const std::string dir = ::testing::TempDir() + "telemetry_prof_gen";
    Experiment ex(ExperimentSpec::Builder()
                      .benchmarks({"swaptions"})
                      .schemes({Scheme::Baseline})
                      .maxRecords(200)
                      .metricsDir(dir)
                      .profile(true)
                      .build());
    ex.run();
    ASSERT_EQ(ex.failures(), 0u);

    Json root = parse_json(slurp(dir + "/profile.json"));
    const Json &merged = root.at("merged");
    const Json &gen = merged.at("phases").at("harness.trace_gen");
    EXPECT_EQ(gen.at("calls").num, 1.0);
    EXPECT_GT(gen.at("ns").num, 0.0);
    double sum = 0;
    for (const auto &[name, ph] : merged.at("phases").obj)
        sum += ph.at("ns").num;
    EXPECT_EQ(sum, merged.at("total_ns").num);
    // No point generates a trace: the phase is only in the merge.
    for (const auto &[label, pt] : root.at("points").obj)
        EXPECT_EQ(pt.at("phases").at("harness.trace_gen").at("calls").num,
                  0.0)
            << label;
}
