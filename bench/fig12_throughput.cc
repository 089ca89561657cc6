/**
 * @file
 * Figure 12: load-latency curves under synthetic traffic whose data
 * payloads replay benchmark blocks (blackscholes and streamcluster),
 * for Uniform Random and Transpose patterns, 25:75 data:control packet
 * mix. One series per scheme, run as one job: it climbs the rates in
 * ascending order and stops at the first saturated one, which prints
 * "sat" with every rate past it.
 */
#include <cstdio>

#include "bench/bench_common.h"
#include "traffic/data_provider.h"
#include "traffic/synthetic.h"

using namespace approxnoc;
using namespace approxnoc::bench;

namespace {

/** Latency at one offered load; negative when saturated. */
double
measure_point(Scheme scheme, TrafficPattern pattern, double rate,
              const CommTrace &payloads,
              const ExperimentConfig &cfg, double threshold,
              double approx_ratio)
{
    NocConfig ncfg;
    CodecConfig cc;
    cc.n_nodes = ncfg.nodes();
    cc.error_threshold_pct = threshold;
    auto codec = CodecFactory::create(scheme, cc);
    Network net(ncfg, codec.get());
    Simulator sim;
    net.attach(sim);

    SyntheticConfig tc;
    tc.injection_rate = rate;
    tc.data_packet_ratio = 0.25; // paper Fig. 12: 25:75
    tc.pattern = pattern;
    tc.approx_ratio = approx_ratio;
    TraceDataProvider provider(payloads);
    SyntheticTraffic gen(net, tc, provider);
    sim.add(&gen);

    // BookSim-style methodology: warm up, open the window, measure.
    Cycle warmup = cfg.cycles / 5;
    sim.run(warmup);
    net.startWindow(sim.now());
    std::uint64_t offered0 = gen.packetsOffered();
    sim.run(cfg.cycles - warmup);

    // Saturation detection: offered vs delivered and queue blow-up.
    double avg = net.stats().total_lat.mean();
    std::uint64_t delivered = net.stats().packets_delivered.value();
    std::uint64_t offered = gen.packetsOffered() - offered0;
    if (delivered < offered * 7 / 10 || avg > 300.0)
        return -1.0;
    return avg;
}

/** One load-latency series. */
struct Series {
    std::string bm;
    TrafficPattern pattern;
    Scheme scheme;
};

} // namespace

int
main(int argc, char **argv)
{
    ExperimentSpec spec =
        ExperimentSpec::Builder()
            .benchmarks({"blackscholes", "streamcluster"})
            .fromCli(argc, argv, "Figure 12: throughput curves",
                     {"benchmarks", "schemes", "threshold", "approx-ratio",
                      "cycles", "scale", "jobs", "progress"})
            .build();
    const ExperimentConfig &cfg = spec.config();

    // Finer steps near saturation so scheme crossover points resolve.
    const std::vector<double> rates = {0.05, 0.15, 0.25, 0.35, 0.40,
                                       0.45, 0.50, 0.55, 0.60, 0.65,
                                       0.70};
    const TrafficPattern patterns[] = {TrafficPattern::UniformRandom,
                                       TrafficPattern::Transpose};

    std::vector<Series> series;
    for (const auto &bm : spec.benchmarks())
        for (TrafficPattern pat : patterns)
            for (Scheme s : spec.schemes())
                series.push_back({bm, pat, s});
    print_banner("Figure 12 (load-latency, UR & TR, 25:75 data:control)",
                 spec, series.size(), "series");

    // The payload traces exist before any series reads them. Their
    // generation is not a series, so --progress does not count it.
    TraceLibrary traces(cfg.scale);
    ExperimentRunner prefetcher(cfg.jobs);
    traces.prefetch(spec.benchmarks(), prefetcher);

    // One job per series, each returning one cell per rate. A rate
    // whose run throws prints FAILED and the series goes on; the
    // first saturated rate ends it, so its cell and every later one
    // keep "sat".
    ExperimentRunner runner(cfg.jobs, make_progress(cfg, "series"));
    auto out = runner.map(series.size(), [&](std::size_t i) {
        const Series &sr = series[i];
        std::vector<std::string> cells(rates.size(), "sat");
        for (std::size_t r = 0; r < rates.size(); ++r) {
            try {
                const double lat = measure_point(
                    sr.scheme, sr.pattern, rates[r],
                    traces.get(sr.bm), cfg,
                    spec.thresholds().front(), spec.approxRatios().front());
                if (lat < 0)
                    break;
                cells[r] = fmt(lat, 2);
            } catch (...) {
                cells[r] = "FAILED";
            }
        }
        return cells;
    });

    Table t({"benchmark", "pattern", "scheme", "rate", "latency"});
    for (std::size_t i = 0; i < series.size(); ++i)
        for (std::size_t r = 0; r < rates.size(); ++r)
            t.row()
                .cell(series[i].bm)
                .cell(to_string(series[i].pattern))
                .cell(to_string(series[i].scheme))
                .cell(rates[r], 2)
                .cell(out[i].ok ? out[i].value[r] : std::string("FAILED"));
    emit(t, spec, "fig12_throughput");
    return 0;
}
