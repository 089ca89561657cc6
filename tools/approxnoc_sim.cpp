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
#include <limits>

#include "common/cli.h"
#include "common/log.h"
#include "common/table.h"
#include "core/codec_factory.h"
#include "harness/experiment.h"
#include "harness/trace_library.h"
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
        "  shape:  --rows, --cols, --flit-bits >= 1; --concentration in\n"
        "          [1, 28]; --vcs in [1, 32], even on a torus; --vc-depth\n"
        "          in [1, 255]; --stages in [1, 1024]; at least 2 nodes;\n"
        "          westfirst routing only on a mesh\n"
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
        "  --sample-interval=<cycles>  (time-series sampling epoch, 0=off;\n"
        "                        needs --metrics-out)\n"
        "  --profile            (simulator self-profiling: phase timings to\n"
        "                        profile.json; needs --metrics-out)\n"
        "  --quiet              (suppress the stats dump; print summary)\n");
}

/**
 * The NoC shape flags, read once in main(): a shape the router cannot
 * run is fatal before any simulation or --compare worker starts, with
 * a fatal: line naming the flag and its allowed range.
 */
NocConfig
parse_noc_config(const CliArgs &args)
{
    constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
    NocConfig ncfg;
    ncfg.rows = args.getCount<unsigned>("rows", 4, 1, kMax);
    ncfg.cols = args.getCount<unsigned>("cols", 4, 1, kMax);
    ncfg.concentration = args.getCount<unsigned>(
        "concentration", 2, 1, Router::kMaxPorts - kLocalBase);
    ncfg.vcs = args.getCount<unsigned>("vcs", 4, 1, Router::kMaxVcs);
    ncfg.vc_depth =
        args.getCount<unsigned>("vc-depth", 4, 1, Router::kMaxVcDepth);
    ncfg.flit_bits = args.getCount<unsigned>("flit-bits", 64, 1, kMax);
    ncfg.router_stages =
        args.getCount<unsigned>("stages", 3, 1, Router::kMaxStages);

    // Every endpoint has a NodeId, and traffic needs two of them.
    const std::uint64_t endpoints = std::uint64_t{ncfg.rows} * ncfg.cols *
                                    ncfg.concentration;
    if (endpoints < 2 || endpoints >= kInvalidNode)
        ANOC_FATAL("flags --rows x --cols x --concentration must give 2 to ",
                   kInvalidNode - 1, " endpoints, got ", endpoints);

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

    if (ncfg.topology == Topology::Torus) {
        // The dateline splits the VCs into two equal classes.
        if (ncfg.vcs % 2 != 0)
            ANOC_FATAL("flag --vcs expects an even integer in [2, ",
                       Router::kMaxVcs, "] with --topology=torus, got '",
                       ncfg.vcs, "'");
        if (ncfg.routing == RoutingAlgo::WestFirst)
            ANOC_FATAL("flag --routing=westfirst needs --topology=mesh: "
                       "the turn model is not deadlock-free on a torus");
    }
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
 *
 * @param labeled prefix the qor.json/profile.json artifacts with the
 *        scheme label (compare mode — keeps workers from clobbering
 *        each other); single-scheme runs use the plain names the CI
 *        smoke checks for.
 */
SimSummary
run_sim(const CliArgs &args, const NocConfig &ncfg, const RealFlags &real,
        Scheme scheme, bool dump, bool labeled = false)
{
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
    topts.sample_interval = args.getCount<Cycle>("sample-interval", 0);
    topts.label = telemetry::sanitize_component(to_string(scheme));
    topts.pid = static_cast<std::uint32_t>(scheme);
    harness::RunInstruments inst(sim, net, cc.error_threshold_pct, topts,
                                 args.getBool("profile", false));

    auto cycles = args.getCount<Cycle>("cycles", 100000);
    auto warmup = args.getCount<Cycle>("warmup", 0);
    auto seed = args.getCount<std::uint64_t>("seed", 42);

    // Traffic source (exactly one).
    std::unique_ptr<SyntheticDataProvider> provider;
    std::unique_ptr<SyntheticTraffic> synth;
    std::unique_ptr<ClosedLoopTraffic> closed;
    std::unique_ptr<CommTrace> trace;
    std::unique_ptr<TraceReplay> replay;

    provider = std::make_unique<SyntheticDataProvider>(
        synthetic_data_type(args), 16, 0.9, 3.0, seed, 0.7, 8);

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
        lc.window = args.getCount<unsigned>("window", 4);
        lc.think_time = args.getCount<Cycle>("think", 4);
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
        net.startWindow(sim.now());
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

    inst.finish(labeled ? topts.label + "." : std::string());

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
run_compare(const CliArgs &args, const NocConfig &ncfg, const RealFlags &real)
{
    std::vector<Scheme> schemes =
        harness::parse_scheme_list(args.getString("compare", "all"));

    harness::ExperimentRunner runner(args.getCount<unsigned>("jobs", 1));
    auto out = runner.map(schemes.size(), [&](std::size_t i) {
        return run_sim(args, ncfg, real, schemes[i], /*dump=*/false,
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
    // Checked here, before any --compare lane starts.
    args.expect({"rows", "cols", "concentration", "topology", "routing",
                 "vcs", "vc-depth", "flit-bits", "stages", "scheme",
                 "threshold", "approx-ratio", "traffic", "rate",
                 "data-ratio", "type", "trace", "load", "closed-loop",
                 "window", "think", "cycles", "warmup", "seed",
                 "qos-target", "compare", "jobs", "metrics-out",
                 "trace-out", "sample-interval", "profile", "quiet"});
    harness::require_metrics_out(args.getBool("profile", false),
                                 args.getCount<Cycle>("sample-interval", 0),
                                 args.getString("metrics-out", ""));

    // The run ends at cycle warmup + cycles, which must be a Cycle.
    const Cycle warmup = args.getCount<Cycle>("warmup", 0);
    const Cycle cycles = args.getCount<Cycle>("cycles", 100000);
    if (cycles > kNeverCycle - warmup)
        ANOC_FATAL("flags --warmup and --cycles add up to more than ",
                   kNeverCycle, " cycles, got ", warmup, " + ", cycles);
    const NocConfig ncfg = parse_noc_config(args);
    const RealFlags real = parse_real_flags(args);
    if (args.has("compare"))
        return run_compare(args, ncfg, real);

    Scheme scheme =
        scheme_from_string(args.getString("scheme", "FP-VAXX"));
    bool quiet = args.getBool("quiet", false);
    SimSummary s = run_sim(args, ncfg, real, scheme, /*dump=*/!quiet);
    if (quiet)
        std::printf("%s: latency %.2f, delivered %llu, data flits %llu, "
                    "quality %.4f (%s)\n",
                    to_string(scheme).c_str(), s.latency,
                    static_cast<unsigned long long>(s.delivered),
                    static_cast<unsigned long long>(s.data_flits),
                    s.quality, s.drained ? "drained" : "TIMEOUT");
    return s.drained ? 0 : 1;
}
