/**
 * @file
 * Flit-width ablation. The paper (Sec. 5.2.1) observes that flit
 * reduction does not scale proportionally with compression ratio
 * because of internal fragmentation — a mostly-empty tail flit. This
 * bench quantifies that: the same benchmark trace replayed at 32-, 64-
 * (Table 1) and 128-bit flits, per scheme, reporting the compression
 * ratio (width-independent) against the achieved data-flit reduction.
 */
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"

using namespace approxnoc;
using namespace approxnoc::bench;

int
main(int argc, char **argv)
{
    Experiment ex(ExperimentSpec::Builder()
                      .benchmarks({"blackscholes", "ssca2"})
                      .fromCli(argc, argv,
                               "Ablation: flit width vs internal "
                               "fragmentation",
                               kReplayFlags)
                      .schemes({Scheme::DiVaxx, Scheme::FpComp,
                                Scheme::FpVaxx})
                      .flitBits({32, 64, 128})
                      .build());
    const ExperimentSpec &spec = ex.spec();
    print_banner("Ablation (flit width / internal fragmentation)", spec,
                 spec.size());
    ex.run();

    Table t({"benchmark", "scheme", "flit_bits", "compr_ratio",
             "flit_reduction", "latency"});
    for (const auto &bm : spec.benchmarks()) {
        const CommTrace &trace = ex.traces().get(bm);
        std::uint64_t data_pkts = 0;
        for (std::size_t i = 0;
             i < std::min(trace.size(), spec.config().max_records); ++i)
            data_pkts += trace.records()[i].isData() ? 1 : 0;
        for (unsigned width : spec.flitBits()) {
            // Baseline flit count at this width, analytically: every
            // data packet is 1 head + ceil(512 / width) payload flits.
            std::uint64_t base =
                data_pkts * (1 + (512 + width - 1) / width);
            for (Scheme s : spec.schemes()) {
                const PointResult &pr = ex.result(
                    {.benchmark = bm, .scheme = s, .flit_bits = width});
                auto row = t.row();
                row.cell(bm).cell(to_string(s)).cell(
                    static_cast<long>(width));
                if (!pr.ok) {
                    row.cell(std::string("FAILED"))
                        .cell(std::string("-"))
                        .cell(std::string("-"));
                    continue;
                }
                const ReplayResult &r = pr.replay;
                double reduction =
                    base ? 1.0 - static_cast<double>(r.data_flits) /
                                     static_cast<double>(base)
                         : 0.0;
                row.cell(r.compression_ratio, 3)
                    .cell(reduction, 3)
                    .cell(r.total_lat, 2);
            }
        }
    }
    emit(t, spec, "ablation_flit_width");
    return 0;
}
