/**
 * @file
 * PMT-size ablation: the paper fixes 8-entry PMTs (Table 1). This
 * sweep varies the dictionary size for DI-COMP/DI-VAXX and reports the
 * compression ratio, packet latency and per-NI encoder area, exposing
 * the capacity/area trade behind that choice.
 */
#include <cstdio>

#include "bench/bench_common.h"
#include "power/area_model.h"

using namespace approxnoc;
using namespace approxnoc::bench;

int
main(int argc, char **argv)
{
    Experiment ex(ExperimentSpec::Builder()
                      .benchmarks({"blackscholes", "streamcluster"})
                      .fromCli(argc, argv, "Ablation: dictionary PMT size",
                               kReplayFlags)
                      .schemes({Scheme::DiComp, Scheme::DiVaxx})
                      .pmtEntries({4, 8, 16, 32})
                      .build());
    const ExperimentSpec &spec = ex.spec();
    print_banner("Ablation (dictionary PMT size sweep)", spec, spec.size());
    ex.run();

    Table t({"benchmark", "scheme", "pmt_entries", "encoded_frac",
             "compr_ratio", "latency", "encoder_mm2"});
    for (const auto &bm : spec.benchmarks())
        for (Scheme s : spec.schemes())
            for (std::size_t entries : spec.pmtEntries()) {
                const PointResult &pr = ex.result(
                    {.benchmark = bm, .scheme = s, .pmt_entries = entries});
                DictionaryConfig dict;
                dict.pmt_entries = entries;
                dict.n_nodes = 32;
                auto row = t.row();
                row.cell(bm).cell(to_string(s)).cell(
                    static_cast<long>(entries));
                if (pr.ok) {
                    const ReplayResult &r = pr.replay;
                    row.cell(r.exact_fraction + r.approx_fraction, 3)
                        .cell(r.compression_ratio, 3)
                        .cell(r.total_lat, 2);
                } else {
                    row.cell(std::string("FAILED"))
                        .cell(std::string("-"))
                        .cell(std::string("-"));
                }
                row.cell(encoder_area_mm2(s, dict, 32), 5);
            }
    emit(t, spec, "ablation_pmt_size");
    return 0;
}
