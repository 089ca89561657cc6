/**
 * @file
 * Extra experiment: memory-style request-reply round-trip latency per
 * scheme under the self-throttling closed-loop generator — the
 * end-to-end "miss latency" view of what the compression schemes buy,
 * complementary to the open-loop/trace figures.
 */
#include <cstdio>

#include "bench/bench_common.h"
#include "traffic/closed_loop.h"
#include "traffic/data_provider.h"

using namespace approxnoc;
using namespace approxnoc::bench;

namespace {

struct LoopResult {
    double round_trip = -1.0;
    std::uint64_t replies = 0;
    std::uint64_t data_flits = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    ExperimentSpec spec =
        ExperimentSpec::Builder()
            .fromCli(argc, argv,
                     "Closed-loop request/reply round-trip latency",
                     {"schemes", "threshold", "approx-ratio", "cycles",
                      "scale", "jobs", "progress"})
            .build();
    const ExperimentConfig &cfg = spec.config();

    const unsigned windows[] = {1u, 4u, 16u};
    struct Point {
        Scheme scheme;
        unsigned window;
    };
    std::vector<Point> points;
    for (Scheme s : spec.schemes())
        for (unsigned window : windows)
            points.push_back({s, window});
    print_banner("Closed-loop round-trip latency (extra experiment)", spec,
                 points.size(), "runs");

    ExperimentRunner runner(cfg.jobs, make_progress(cfg, "runs"));
    std::vector<Outcome<LoopResult>> out =
        runner.map(points.size(), [&](std::size_t i) {
            const Point &p = points[i];
            NocConfig ncfg;
            CodecConfig cc;
            cc.n_nodes = ncfg.nodes();
            cc.error_threshold_pct = spec.thresholds().front();
            auto codec = CodecFactory::create(p.scheme, cc);
            Network net(ncfg, codec.get());
            Simulator sim;
            net.attach(sim);

            ClosedLoopConfig lc;
            lc.window = p.window;
            lc.approx_ratio = spec.approxRatios().front();
            SyntheticDataProvider provider(DataType::Int32, 16, 0.9, 3.0,
                                           cfg.scale + 3, 0.7, 8);
            ClosedLoopTraffic gen(net, lc, provider);
            sim.add(&gen);

            sim.run(cfg.cycles);
            gen.setEnabled(false);
            // Drain check every 64 cycles: quiesced()/drained() scan
            // every VC, so per-cycle polling dominates the drain tail.
            bool ok = sim.runUntil(
                [&] { return gen.quiesced() && net.drained(); }, 500000,
                /*check_interval=*/64);

            LoopResult r;
            r.round_trip = ok ? gen.roundTrip().mean() : -1.0;
            r.replies = gen.repliesReceived();
            r.data_flits = net.dataFlitsInjected();
            return r;
        });

    Table t({"scheme", "window", "round_trip", "replies", "data_flits"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        auto row = t.row();
        row.cell(to_string(points[i].scheme))
            .cell(static_cast<long>(points[i].window));
        if (out[i].ok) {
            const LoopResult &r = out[i].value;
            row.cell(r.round_trip, 2)
                .cell(static_cast<long>(r.replies))
                .cell(static_cast<long>(r.data_flits));
        } else {
            row.cell(std::string("FAILED"))
                .cell(std::string("-"))
                .cell(std::string("-"));
        }
    }
    emit(t, spec, "closed_loop_latency");
    return 0;
}
