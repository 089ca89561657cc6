/**
 * @file
 * Standalone NoC simulation: sweep synthetic injection rates on the
 * paper's 4x4 concentrated mesh and print the load-latency curve for a
 * chosen scheme and traffic pattern — the classic network-evaluation
 * workflow, exercised end to end through the public API.
 *
 * Usage: ./build/examples/noc_simulation [--scheme=FP-VAXX]
 *        [--pattern=uniform] [--cycles=20000] [--type=float] [--stats]
 */
#include <cstdio>
#include <sstream>

#include "common/cli.h"
#include "common/table.h"
#include "core/codec_factory.h"
#include "noc/network.h"
#include "sim/simulator.h"
#include "traffic/data_provider.h"
#include "traffic/synthetic.h"

using namespace approxnoc;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    Scheme scheme = scheme_from_string(args.getString("scheme", "FP-VAXX"));
    TrafficPattern pattern =
        pattern_from_string(args.getString("pattern", "uniform"));
    auto cycles = static_cast<Cycle>(args.getCount("cycles", 20000));
    DataType type = args.getString("type", "float") == "int"
                        ? DataType::Int32
                        : DataType::Float32;
    bool want_stats = args.getBool("stats", false);

    std::printf("%s, %s traffic, value-local %s payloads\n\n",
                to_string(scheme).c_str(), to_string(pattern).c_str(),
                to_string(type).c_str());
    std::printf("%-8s %-12s %-10s %-12s\n", "rate", "latency", "delivered",
                "data-flits");

    for (double rate = 0.05; rate <= 0.66; rate += 0.10) {
        NocConfig ncfg;
        CodecConfig cc;
        cc.n_nodes = ncfg.nodes();
        auto codec = CodecFactory::create(scheme, cc);
        Network net(ncfg, codec.get());
        Simulator sim;
        net.attach(sim);

        SyntheticConfig tc;
        tc.injection_rate = rate;
        tc.pattern = pattern;
        SyntheticDataProvider provider(type, 16, 0.9, 3.0, 11, 0.7, 8);
        SyntheticTraffic gen(net, tc, provider);
        sim.add(&gen);
        sim.run(cycles);

        double lat = net.stats().total_lat.mean();
        bool sat = net.stats().packets_delivered.value() <
                       gen.packetsOffered() * 7 / 10 ||
                   lat > 300;
        std::printf("%-8.2f %-12s %-10llu %-12llu\n", rate,
                    sat ? "saturated" : fmt(lat, 2).c_str(),
                    static_cast<unsigned long long>(
                        net.stats().packets_delivered.value()),
                    static_cast<unsigned long long>(net.dataFlitsInjected()));
        if (want_stats) {
            std::printf("\n");
            std::ostringstream os;
            net.dumpStats(os, sim.now());
            std::fputs(os.str().c_str(), stdout);
            std::printf("\n");
        }
        if (sat)
            break;
    }
    return 0;
}
