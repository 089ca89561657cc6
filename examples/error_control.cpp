/**
 * @file
 * Online data-error control: a QoS loop watches the data error the
 * network actually incurs and retunes the VAXX error threshold at run
 * time (AIMD), keeping quality under an application target while
 * harvesting as much compression as that target permits — the
 * "online data error control mechanism" of the paper's abstract.
 *
 * Usage: ./build/examples/error_control [--target=0.2] [--initial=30]
 */
#include <cstdio>

#include "common/cli.h"
#include "core/codec_factory.h"
#include "noc/qos_loop.h"
#include "sim/simulator.h"
#include "traffic/data_provider.h"
#include "traffic/synthetic.h"

using namespace approxnoc;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    // Mean data error target, %.
    double target = args.getDouble("target", 0.2, kPercentRange);
    // Starting threshold, %, inside the controller's default [0, 50].
    double initial = args.getDouble("initial", 30.0, RealRange{0.0, 50.0});

    NocConfig ncfg;
    CodecConfig cc;
    cc.n_nodes = ncfg.nodes();
    cc.error_threshold_pct = initial;
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    Network net(ncfg, codec.get());
    Simulator sim;
    net.attach(sim);

    SyntheticConfig tc;
    tc.injection_rate = 0.15;
    tc.data_packet_ratio = 0.6;
    SyntheticDataProvider provider(DataType::Int32, 16, 0.95, 4.0, 9, 0.6,
                                   8);
    SyntheticTraffic gen(net, tc, provider);
    sim.add(&gen);

    ErrorControlLoop loop(net, QosController(target, initial), 1000);
    sim.add(&loop);

    std::printf("FP-VAXX with online error control "
                "(target %.2f%% mean data error)\n\n", target);
    std::printf("%-8s %-12s %-14s %-12s\n", "cycle", "threshold",
                "window_err(%)", "compr_ratio");

    std::uint64_t last_blocks = 0;
    double last_err = 0.0;
    for (int step = 0; step < 12; ++step) {
        sim.run(5000);
        const QualityTracker &q = net.stats().quality;
        double window_err =
            q.blocks() > last_blocks
                ? 100.0 * (q.errorSum() - last_err) /
                      static_cast<double>(q.blocks() - last_blocks)
                : 0.0;
        last_blocks = q.blocks();
        last_err = q.errorSum();
        std::printf("%-8llu %-12.2f %-14.4f %-12.3f\n",
                    static_cast<unsigned long long>(sim.now()),
                    loop.controller().threshold(), window_err,
                    q.compressionRatio());
    }

    std::printf("\nthreshold adjustments: %llu, violations: %llu, "
                "mean window error %.4f%% (target %.2f%%)\n",
                static_cast<unsigned long long>(loop.adjustments()),
                static_cast<unsigned long long>(
                    loop.controller().violations()),
                loop.meanWindowErrorPct(), target);
    return 0;
}
