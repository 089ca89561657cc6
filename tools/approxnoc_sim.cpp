/**
 * @file
 * approxnoc_sim — the standalone network simulator binary (in the
 * spirit of BookSim's main or gem5's Garnet standalone mode), exposing
 * the full configuration space on the command line:
 *
 *   topology/routing : --rows --cols --concentration --topology=mesh|torus
 *                      --routing=xy|yx|westfirst
 *   router           : --vcs --vc-depth --flit-bits --stages
 *   scheme           : --scheme=Baseline|DI-COMP|DI-VAXX|FP-COMP|FP-VAXX
 *                      --threshold --approx-ratio
 *   traffic          : --traffic=uniform|transpose|bitcomp|hotspot|neighbor
 *                      --rate --data-ratio --type=int|float
 *                      or --trace=<file> [--load]
 *                      or --closed-loop [--window --think]
 *   run              : --cycles --warmup --seed --qos-target
 *   compare          : --compare=<all|scheme,scheme,...> [--jobs=N]
 *                      one simulation per scheme, run in parallel,
 *                      reported as one table
 *
 * Single-scheme runs end with the gem5-style stats dump.
 */
#include <cstdio>
#include <iostream>
#include <optional>

#include "common/cli.h"
#include "common/log.h"
#include "common/table.h"
#include "core/codec_factory.h"
#include "harness/experiment.h"
#include "harness/trace_library.h"
#include "telemetry/error_profile.h"
#include "telemetry/phase_profiler.h"
#include "noc/network.h"
#include "noc/qos_loop.h"
#include "sim/simulator.h"
#include "traffic/closed_loop.h"
#include "traffic/data_provider.h"
#include "traffic/replay.h"
#include "traffic/synthetic.h"

using namespace approxnoc;

namespace {

void
usage()
{
    std::printf(
        "approxnoc_sim — APPROX-NoC network simulator\n\n"
        "  --rows=4 --cols=4 --concentration=2\n"
        "  --topology=mesh|torus --routing=xy|yx|westfirst\n"
        "  --vcs=4 --vc-depth=4 --flit-bits=64 --stages=3\n"
        "  --scheme=FP-VAXX --threshold=10 --approx-ratio=0.75\n"
        "  --traffic=uniform --rate=0.1 --data-ratio=0.25 --type=float\n"
        "  --trace=<file> [--load=0.04]   (replaces synthetic traffic)\n"
        "  ranges: --threshold and --qos-target in [0, 100] (--threshold\n"
        "          in [0, 50] with --qos-target); --approx-ratio, --rate\n"
        "          and --data-ratio in [0, 1]; --load > 0\n"
        "  --closed-loop [--window=4 --think=4]\n"
        "  --cycles=100000 --warmup=0 --seed=42\n"
        "  --qos-target=<pct>   (enable the online error-control loop)\n"
        "  --compare=<all|s,s>  (one sim per scheme, parallel with --jobs)\n"
        "  --jobs=<n>           (worker threads for --compare, 0=auto)\n"
        "  --metrics-out=<dir>  (hierarchical metrics JSON per run)\n"
        "  --trace-out=<dir>    (Chrome trace-event JSON per run; open in\n"
        "                        Perfetto or chrome://tracing)\n"
        "  --sample-interval=<cycles>  (time-series sampling epoch, 0=off)\n"
        "  --profile            (simulator self-profiling: phase timings to\n"
        "                        profile.json in the metrics dir, or '.')\n"
        "  --quiet              (suppress the stats dump; print summary)\n");
}

NocConfig
parse_noc_config(const CliArgs &args)
{
    NocConfig ncfg;
    ncfg.rows = static_cast<unsigned>(args.getCount("rows", 4));
    ncfg.cols = static_cast<unsigned>(args.getCount("cols", 4));
    ncfg.concentration =
        static_cast<unsigned>(args.getCount("concentration", 2));
    ncfg.vcs = static_cast<unsigned>(args.getCount("vcs", 4));
    ncfg.vc_depth = static_cast<unsigned>(args.getCount("vc-depth", 4));
    ncfg.flit_bits = static_cast<unsigned>(args.getCount("flit-bits", 64));
    ncfg.router_stages = static_cast<unsigned>(args.getCount("stages", 3));

    std::string topo = args.getString("topology", "mesh");
    if (topo == "torus")
        ncfg.topology = Topology::Torus;
    else if (topo != "mesh")
        ANOC_FATAL("unknown topology '", topo, "'");

    std::string routing = args.getString("routing", "xy");
    if (routing == "yx")
        ncfg.routing = RoutingAlgo::YX;
    else if (routing == "westfirst")
        ncfg.routing = RoutingAlgo::WestFirst;
    else if (routing != "xy")
        ANOC_FATAL("unknown routing '", routing, "'");
    return ncfg;
}

/**
 * The real-valued flags, read and range-checked once in main(), so a
 * bad value fails before any simulation or --compare worker starts.
 */
struct RealFlags {
    double threshold;
    double approx_ratio;
    double load;
    double rate;
    double data_ratio;
    double qos_target;
};

RealFlags
parse_real_flags(const CliArgs &args)
{
    RealFlags f{};
    // The QoS controller keeps its threshold in [0, 50] (its default
    // bounds), so with --qos-target the starting threshold must too.
    f.threshold = args.getDouble("threshold", 10.0,
                                 args.has("qos-target") ? RealRange{0.0, 50.0}
                                                        : kPercentRange);
    f.approx_ratio = args.getDouble("approx-ratio", 0.75, kFractionRange);
    f.load = args.getDouble("load", 0.04, kPositiveRange);
    f.rate = args.getDouble("rate", 0.1, kFractionRange);
    f.data_ratio = args.getDouble("data-ratio", 0.25, kFractionRange);
    f.qos_target = args.getDouble("qos-target", 0.2, kPercentRange);
    return f;
}

struct SimSummary {
    double latency = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t data_flits = 0;
    double quality = 1.0;
    bool drained = false;
};

/**
 * One fully isolated simulation of @p scheme under the CLI-selected
 * traffic. When @p dump is set, ends with the gem5-style stats dump on
 * stdout (single-scheme mode only — compare mode keeps workers quiet).
 */
/**
 * @param labeled prefix the qor.json/profile.json artifacts with the
 *        scheme label (compare mode — keeps workers from clobbering
 *        each other); single-scheme runs use the plain names the CI
 *        smoke checks for.
 */
SimSummary
run_sim(const CliArgs &args, const RealFlags &real, Scheme scheme, bool dump,
        bool labeled = false)
{
    NocConfig ncfg = parse_noc_config(args);
    CodecConfig cc;
    cc.n_nodes = ncfg.nodes();
    cc.error_threshold_pct = real.threshold;
    auto codec = CodecFactory::create(scheme, cc);

    Network net(ncfg, codec.get());
    Simulator sim;
    net.attach(sim);

    // Telemetry (off unless requested). Per-scheme labels keep compare
    // runs from clobbering each other's artifacts.
    telemetry::TelemetryOptions topts;
    topts.metrics_dir = args.getString("metrics-out", "");
    topts.trace_dir = args.getString("trace-out", "");
    topts.sample_interval =
        static_cast<Cycle>(args.getCount("sample-interval", 0));
    topts.label = telemetry::sanitize_component(to_string(scheme));
    topts.pid = static_cast<std::uint32_t>(scheme);
    // QoR error telemetry is always on (the error ledger walks every
    // delivered block anyway); the self-profiler only under
    // --profile. Bind before bindTelemetry so the sampler also
    // carries live qor.* probes.
    telemetry::ErrorProfile qor;
    if (cc.error_threshold_pct > 0)
        qor.setDebugLimit(cc.error_threshold_pct / 100.0 *
                          telemetry::ErrorProfile::kDebugSlack);
    net.bindErrorProfile(&qor);

    const bool profile = args.getBool("profile", false);
    std::unique_ptr<telemetry::PhaseProfiler> prof;
    if (profile) {
        prof = std::make_unique<telemetry::PhaseProfiler>();
        sim.bindProfiler(prof.get());
        net.bindProfiler(prof.get());
    }

    std::optional<telemetry::PointTelemetry> pt;
    if (topts.enabled()) {
        pt.emplace(topts);
        net.bindTelemetry(*pt);
        if (pt->tracer())
            pt->tracer()->setProcessName(to_string(scheme));
        if (pt->sampler())
            sim.add(pt->sampler());
    }

    auto cycles = static_cast<Cycle>(args.getCount("cycles", 100000));
    auto warmup = static_cast<Cycle>(args.getCount("warmup", 0));
    auto seed = static_cast<std::uint64_t>(args.getInt("seed", 42));

    // Traffic source (exactly one).
    std::unique_ptr<SyntheticDataProvider> provider;
    std::unique_ptr<SyntheticTraffic> synth;
    std::unique_ptr<ClosedLoopTraffic> closed;
    std::unique_ptr<CommTrace> trace;
    std::unique_ptr<TraceReplay> replay;

    DataType type = args.getString("type", "float") == "int"
                        ? DataType::Int32
                        : DataType::Float32;
    provider = std::make_unique<SyntheticDataProvider>(type, 16, 0.9, 3.0,
                                                       seed, 0.7, 8);

    if (args.has("trace")) {
        trace = std::make_unique<CommTrace>(
            CommTrace::load(args.getString("trace", "")));
        const double natural =
            harness::TraceLibrary::naturalLoad(*trace, ncfg.nodes());
        replay = std::make_unique<TraceReplay>(
            net, *trace, natural > 0 ? natural / real.load : 1.0,
            real.approx_ratio);
        sim.add(replay.get());
    } else if (args.getBool("closed-loop", false)) {
        ClosedLoopConfig lc;
        lc.window = static_cast<unsigned>(args.getCount("window", 4));
        lc.think_time = static_cast<Cycle>(args.getCount("think", 4));
        lc.approx_ratio = real.approx_ratio;
        lc.seed = seed;
        closed = std::make_unique<ClosedLoopTraffic>(net, lc, *provider);
        sim.add(closed.get());
    } else {
        SyntheticConfig tc;
        tc.injection_rate = real.rate;
        tc.data_packet_ratio = real.data_ratio;
        tc.pattern = pattern_from_string(
            args.getString("traffic", "uniform"));
        tc.approx_ratio = real.approx_ratio;
        tc.seed = seed;
        synth = std::make_unique<SyntheticTraffic>(net, tc, *provider);
        sim.add(synth.get());
    }

    std::unique_ptr<ErrorControlLoop> qos;
    if (args.has("qos-target")) {
        qos = std::make_unique<ErrorControlLoop>(
            net,
            QosController(real.qos_target, cc.error_threshold_pct),
            2000);
        sim.add(qos.get());
    }

    if (warmup > 0) {
        sim.run(warmup);
        net.stats().reset();
    }
    sim.run(cycles);

    // Stop offering and drain.
    if (synth)
        synth->setEnabled(false);
    if (closed)
        closed->setEnabled(false);
    bool drained = sim.runUntil(
        [&] {
            return net.drained() &&
                   (!replay || replay->done()) &&
                   (!closed || closed->quiesced());
        },
        static_cast<Cycle>(5e6));

    if (dump) {
        net.dumpStats(std::cout, sim.now());
        if (closed)
            std::printf("closed_loop.round_trip    %.2f\n",
                        closed->roundTrip().mean());
        if (qos)
            std::printf("qos.threshold            %.2f (violations %llu)\n",
                        qos->controller().threshold(),
                        static_cast<unsigned long long>(
                            qos->controller().violations()));
    }

    if (pt) {
        if (telemetry::Sampler *smp = pt->sampler()) {
            if (smp->sampleCycles().empty() ||
                smp->sampleCycles().back() != sim.now())
                smp->sample(sim.now());
        }
        net.collectTelemetry(*pt->metrics());
        pt->metrics()->counter("sim.elapsed_cycles").inc(sim.now());
        qor.exportTo(*pt->metrics(),
                     "qor." + telemetry::sanitize_component(
                                  to_string(scheme)));
        pt->write();
    }

    // qor.json always accompanies the metrics; profile.json needs
    // --profile and falls back to the working directory so `--profile`
    // alone still leaves an artifact behind.
    const std::string stem = labeled ? topts.label + "." : std::string();
    if (topts.metricsEnabled())
        telemetry::write_json_artifact(
            topts.metrics_dir, stem + "qor.json",
            [&](std::ostream &os) { qor.writeJson(os); });
    if (prof) {
        const std::string dir =
            topts.metricsEnabled() ? topts.metrics_dir : std::string(".");
        telemetry::write_json_artifact(
            dir, stem + "profile.json",
            [&](std::ostream &os) { prof->writeJson(os); });
        if (!topts.metricsEnabled())
            telemetry::write_json_artifact(
                dir, stem + "qor.json",
                [&](std::ostream &os) { qor.writeJson(os); });
    }

    SimSummary s;
    s.latency = net.stats().total_lat.mean();
    s.delivered = net.stats().packets_delivered.value();
    s.data_flits = net.dataFlitsInjected();
    s.quality = net.stats().quality.dataQuality();
    s.drained = drained;
    return s;
}

/** `--compare` mode: one simulation per scheme, `--jobs` at a time. */
int
run_compare(const CliArgs &args, const RealFlags &real)
{
    std::vector<Scheme> schemes =
        harness::parse_scheme_list(args.getString("compare", "all"));

    harness::ExperimentRunner runner(
        static_cast<unsigned>(args.getCount("jobs", 1)));
    auto out = runner.map(schemes.size(), [&](std::size_t i) {
        return run_sim(args, real, schemes[i], /*dump=*/false,
                       /*labeled=*/true);
    });

    Table t({"scheme", "latency", "delivered", "data_flits", "quality",
             "status"});
    bool all_ok = true;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        auto row = t.row();
        row.cell(to_string(schemes[i]));
        if (!out[i].ok) {
            row.cell(std::string("-"))
                .cell(std::string("-"))
                .cell(std::string("-"))
                .cell(std::string("-"))
                .cell("FAILED: " + out[i].error);
            all_ok = false;
            continue;
        }
        const SimSummary &s = out[i].value;
        row.cell(s.latency, 2)
            .cell(static_cast<long>(s.delivered))
            .cell(static_cast<long>(s.data_flits))
            .cell(s.quality, 4)
            .cell(std::string(s.drained ? "drained" : "TIMEOUT"));
        all_ok = all_ok && s.drained;
    }
    t.print(std::cout);
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    if (args.has("help")) {
        usage();
        return 0;
    }

    const RealFlags real = parse_real_flags(args);
    if (args.has("compare"))
        return run_compare(args, real);

    Scheme scheme =
        scheme_from_string(args.getString("scheme", "FP-VAXX"));
    bool quiet = args.getBool("quiet", false);
    SimSummary s = run_sim(args, real, scheme, /*dump=*/!quiet);
    if (quiet)
        std::printf("%s: latency %.2f, delivered %llu, data flits %llu, "
                    "quality %.4f (%s)\n",
                    to_string(scheme).c_str(), s.latency,
                    static_cast<unsigned long long>(s.delivered),
                    static_cast<unsigned long long>(s.data_flits),
                    s.quality, s.drained ? "drained" : "TIMEOUT");
    return s.drained ? 0 : 1;
}
