/**
 * @file
 * Trace workbench: record a communication trace from any benchmark
 * kernel, save/load it in the textual trace format, summarize it, and
 * replay it through the NoC under a chosen scheme — the full
 * trace-driven methodology as a command-line tool.
 *
 * Usage:
 *   trace_tool record --benchmark=blackscholes --out=bs.trace
 *   trace_tool info --in=bs.trace
 *   trace_tool replay --in=bs.trace --scheme=FP-VAXX [--load=0.04]
 */
#include <cstdio>
#include <map>
#include <sstream>

#include "common/cli.h"
#include "core/codec_factory.h"
#include "harness/trace_library.h"
#include "noc/network.h"
#include "sim/simulator.h"
#include "traffic/replay.h"
#include "traffic/trace.h"
#include "workloads/workload.h"

using namespace approxnoc;

namespace {

int
cmd_record(const CliArgs &args)
{
    std::string bm = args.getString("benchmark", "blackscholes");
    std::string out = args.getString("out", bm + ".trace");
    CacheConfig ccfg;
    ApproxCacheSystem mem(ccfg, nullptr);
    CommTrace trace;
    mem.setTraceSink(&trace);
    make_workload(bm, args.getCount<unsigned>("scale", 1, 1, kMaxScale))
        ->run(mem);
    trace.save(out);
    std::printf("recorded %zu records (%zu blocks, %llu cycles) from %s "
                "-> %s\n",
                trace.size(), trace.blockCount(),
                static_cast<unsigned long long>(trace.duration()),
                bm.c_str(), out.c_str());
    return 0;
}

int
cmd_info(const CliArgs &args)
{
    std::string in = args.getString("in", "");
    if (in.empty()) {
        std::fprintf(stderr, "trace_tool info --in=<file>\n");
        return 1;
    }
    CommTrace trace = CommTrace::load(in);
    std::map<DataType, std::size_t> type_blocks;
    std::size_t approximable = 0;
    for (std::uint32_t i = 0; i < trace.blockCount(); ++i) {
        const CommTrace::BlockView b = trace.block(i);
        ++type_blocks[b.type];
        approximable += b.approximable ? 1 : 0;
    }
    std::printf("%s:\n", in.c_str());
    std::printf("  records        : %zu (%.1f%% data)\n", trace.size(),
                100.0 * trace.dataPacketRatio());
    std::printf("  duration       : %llu cycles\n",
                static_cast<unsigned long long>(trace.duration()));
    std::printf("  blocks         : %zu (%.1f%% annotated approximable)\n",
                trace.blockCount(),
                trace.blockCount() == 0
                    ? 0.0
                    : 100.0 * approximable / trace.blockCount());
    for (auto [t, n] : type_blocks)
        std::printf("    %-8s : %zu\n", to_string(t).c_str(), n);
    return 0;
}

int
cmd_replay(const CliArgs &args)
{
    std::string in = args.getString("in", "");
    if (in.empty()) {
        std::fprintf(stderr, "trace_tool replay --in=<file> "
                             "[--scheme=FP-VAXX]\n");
        return 1;
    }
    CommTrace trace = CommTrace::load(in);
    Scheme scheme = scheme_from_string(args.getString("scheme", "FP-VAXX"));
    double load = args.getDouble("load", 0.04, kPositiveRange);

    NocConfig ncfg;
    CodecConfig cc;
    cc.n_nodes = ncfg.nodes();
    cc.error_threshold_pct = args.getDouble("threshold", 10.0, kPercentRange);
    auto codec = CodecFactory::create(scheme, cc);
    Network net(ncfg, codec.get());
    Simulator sim;
    net.attach(sim);

    double natural = harness::TraceLibrary::naturalLoad(trace, ncfg.nodes());
    TraceReplay replay(net, trace, natural > 0 ? natural / load : 1.0,
                       args.getDouble("approx-ratio", 0.75, kFractionRange));
    sim.add(&replay);
    bool ok = sim.runUntil(
        [&] { return replay.done() && net.drained(); },
        static_cast<Cycle>(2e8));

    std::printf("replayed %s under %s (%s)\n\n", in.c_str(),
                to_string(scheme).c_str(), ok ? "drained" : "TIMEOUT");
    std::ostringstream os;
    net.dumpStats(os, sim.now());
    std::fputs(os.str().c_str(), stdout);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.expect({"benchmark", "out", "scale", "in", "scheme", "load",
                 "threshold", "approx-ratio"});
    std::string cmd =
        args.positional().empty() ? "help" : args.positional()[0];
    if (cmd == "record")
        return cmd_record(args);
    if (cmd == "info")
        return cmd_info(args);
    if (cmd == "replay")
        return cmd_replay(args);
    std::printf("usage: trace_tool <record|info|replay> [flags]\n"
                "  record --benchmark=<name> --out=<file> [--scale=N]\n"
                "  info   --in=<file>\n"
                "  replay --in=<file> [--scheme=S] [--load=L] "
                "[--threshold=T]\n");
    return cmd == "help" ? 0 : 1;
}
