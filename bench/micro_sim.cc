/**
 * @file
 * micro_sim — the simulator-stepping throughput benchmark. One fixed,
 * seeded workload: an 8x8 concentrated mesh (128 endpoints) under
 * saturating uniform synthetic traffic with the Baseline codec, so
 * almost all per-cycle work is router/NI stepping rather than codec
 * arithmetic.
 *
 * The run measures serial cycles/second as the median of --bench-reps
 * timed reps, each over a fresh simulator (after a warmup run), and
 * checks that every rep delivered the same results (packets delivered,
 * data flits injected, mean latency): the seeded simulation must
 * repeat exactly. A divergence fails the run.
 *
 * Invoked with --bench-out=FILE it writes machine-readable JSON
 * (schema approxnoc-micro-sim-bench-v1) with the same results section
 * shape micro_codec emits, so scripts/bench_compare.py diffs two such
 * files; CI compares against the checked-in seed baseline
 * (bench/baselines/BENCH_micro_sim.seed.json). See docs/perf.md.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/codec_factory.h"
#include "noc/network.h"
#include "sim/simulator.h"
#include "traffic/data_provider.h"
#include "traffic/synthetic.h"

using namespace approxnoc;

namespace {

/** Median throughput plus the results every rep must repeat. */
struct RunResult {
    double cycles_per_sec = 0.0;
    std::vector<double> rep_cps;
    std::uint64_t delivered = 0;
    std::uint64_t data_flits = 0;
    double total_lat = 0.0;
    bool repeated = true; ///< every rep matched the first
};

struct Workload {
    unsigned rows = 8;
    unsigned cols = 8;
    Cycle warmup = 2000;
    Cycle cycles = 20000;
    double rate = 0.30;
    double data_ratio = 0.5;
    std::uint64_t seed = 42;
    int reps = 5;
};

/** @p reps fresh, fully isolated simulations of the fixed workload,
 *  each timed over the post-warmup run. */
RunResult
run_reps(const Workload &w, int reps)
{
    RunResult out;
    for (int rep = 0; rep < reps; ++rep) {
        NocConfig ncfg;
        ncfg.rows = w.rows;
        ncfg.cols = w.cols;
        ncfg.concentration = 2;
        CodecConfig cc;
        cc.n_nodes = ncfg.nodes();
        auto codec = CodecFactory::create(Scheme::Baseline, cc);

        Network net(ncfg, codec.get());
        Simulator sim;
        net.attach(sim);

        SyntheticConfig tc;
        tc.injection_rate = w.rate;
        tc.data_packet_ratio = w.data_ratio;
        tc.pattern = TrafficPattern::UniformRandom;
        tc.seed = w.seed;
        SyntheticDataProvider provider(DataType::Float32, 16, 0.9, 3.0,
                                       w.seed, 0.7, 8);
        SyntheticTraffic gen(net, tc, provider);
        sim.add(&gen);

        sim.run(w.warmup);
        auto t0 = std::chrono::steady_clock::now();
        sim.run(w.cycles);
        auto t1 = std::chrono::steady_clock::now();
        double secs = std::chrono::duration<double>(t1 - t0).count();
        out.rep_cps.push_back(static_cast<double>(w.cycles) / secs);

        const std::uint64_t delivered = net.stats().packets_delivered.value();
        const std::uint64_t data_flits = net.dataFlitsInjected();
        const double total_lat = net.stats().total_lat.mean();
        if (rep == 0) {
            out.delivered = delivered;
            out.data_flits = data_flits;
            out.total_lat = total_lat;
        } else if (delivered != out.delivered ||
                   data_flits != out.data_flits ||
                   total_lat != out.total_lat) {
            out.repeated = false;
        }
    }
    std::vector<double> sorted = out.rep_cps;
    std::sort(sorted.begin(), sorted.end());
    out.cycles_per_sec = sorted[sorted.size() / 2];
    return out;
}

int
write_json(const std::string &path, const Workload &w, const RunResult &r)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "micro_sim: cannot open %s for writing\n",
                     path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"approxnoc-micro-sim-bench-v1\",\n");
    std::fprintf(f,
                 "  \"config\": {\n"
                 "    \"rows\": %u,\n"
                 "    \"cols\": %u,\n"
                 "    \"concentration\": 2,\n"
                 "    \"scheme\": \"baseline\",\n"
                 "    \"rate\": %.3g,\n"
                 "    \"data_ratio\": %.3g,\n"
                 "    \"warmup\": %llu,\n"
                 "    \"cycles\": %llu,\n"
                 "    \"reps\": %d,\n"
                 "    \"seed\": %llu\n"
                 "  },\n",
                 w.rows, w.cols, w.rate, w.data_ratio,
                 static_cast<unsigned long long>(w.warmup),
                 static_cast<unsigned long long>(w.cycles), w.reps,
                 static_cast<unsigned long long>(w.seed));
    std::fprintf(f, "  \"results\": {\n    \"mesh_%ux%u\": {\n",
                 w.rows, w.cols);
    std::fprintf(f, "      \"cycles_per_sec\": %.6g,\n", r.cycles_per_sec);
    std::fprintf(f, "      \"reps_cycles_per_sec\": [");
    for (std::size_t i = 0; i < r.rep_cps.size(); ++i)
        std::fprintf(f, "%s%.6g", i ? ", " : "", r.rep_cps[i]);
    std::fprintf(f,
                 "],\n"
                 "      \"packets_delivered\": %llu,\n"
                 "      \"data_flits\": %llu\n    }\n  }\n}\n",
                 static_cast<unsigned long long>(r.delivered),
                 static_cast<unsigned long long>(r.data_flits));
    std::fclose(f);
    std::fprintf(stderr, "micro_sim: wrote %s\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    if (args.has("help")) {
        std::printf(
            "micro_sim — simulator stepping throughput benchmark\n\n"
            "  --bench-reps=<n>  timed reps, median kept (5)\n"
            "  --rows=8 --cols=8 --cycles=20000 --warmup=2000\n"
            "  --rate=0.30 --data-ratio=0.5 --seed=42\n"
            "  --bench-out=<file>  machine-readable JSON for\n"
            "                      scripts/bench_compare.py\n");
        return 0;
    }

    Workload w;
    w.rows = static_cast<unsigned>(args.getCount("rows", 8));
    w.cols = static_cast<unsigned>(args.getCount("cols", 8));
    w.cycles = static_cast<Cycle>(args.getCount("cycles", 20000));
    w.warmup = static_cast<Cycle>(args.getCount("warmup", 2000));
    w.rate = args.getDouble("rate", 0.30);
    w.data_ratio = args.getDouble("data-ratio", 0.5);
    w.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    w.reps = std::max(1, static_cast<int>(args.getCount("bench-reps", 5)));

    RunResult r = run_reps(w, w.reps);
    std::fprintf(stderr, "mesh_%ux%u  %12.0f cycles/sec\n", w.rows, w.cols,
                 r.cycles_per_sec);
    if (!r.repeated) {
        std::fprintf(stderr, "micro_sim: DETERMINISM MISMATCH: the seeded "
                             "reps did not repeat the first rep's results\n");
        return 1;
    }
    std::fprintf(stderr,
                 "micro_sim: %d reps repeated exactly (%llu packets "
                 "delivered)\n",
                 w.reps, static_cast<unsigned long long>(r.delivered));

    std::string out = args.getString("bench-out", "");
    if (!out.empty())
        return write_json(out, w, r);
    return 0;
}
