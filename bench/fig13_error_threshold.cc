/**
 * @file
 * Figure 13: error-threshold sensitivity. For each benchmark and each
 * of the DI-based and FP-based families, average packet latency with
 * plain compression (0% threshold) and VAXX at 5%, 10% and 20%.
 */
#include <cstdio>

#include "bench/bench_common.h"

using namespace approxnoc;
using namespace approxnoc::bench;

namespace {

bool
is_vaxx(Scheme s)
{
    return s == Scheme::DiVaxx || s == Scheme::FpVaxx;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<double> thresholds = {5.0, 10.0, 20.0};

    // One grid: plain compression at the 0% sentinel threshold, the
    // VAXX variants at each paper threshold.
    ExperimentSpec::Builder builder;
    builder.fromCli(argc, argv, "Figure 13: error threshold sensitivity")
        .schemes({Scheme::DiComp, Scheme::DiVaxx, Scheme::FpComp,
                  Scheme::FpVaxx})
        .thresholds({0.0, 5.0, 10.0, 20.0})
        .filter([](const ExperimentPoint &p) {
            return is_vaxx(p.scheme) ? p.threshold > 0.0
                                     : p.threshold == 0.0;
        });
    Experiment ex(builder.build());
    print_banner("Figure 13 (error-threshold sensitivity)", ex.spec());
    ex.run();

    Table t({"benchmark", "family", "compression", "5%_threshold",
             "10%_threshold", "20%_threshold"});

    struct Family {
        const char *name;
        Scheme compression;
        Scheme vaxx;
    };
    const Family families[] = {
        {"DI-based", Scheme::DiComp, Scheme::DiVaxx},
        {"FP-based", Scheme::FpComp, Scheme::FpVaxx},
    };

    auto lat_cell = [&](Table::RowBuilder &row, const PointResult &pr) {
        if (pr.ok)
            row.cell(pr.replay.total_lat, 2);
        else
            row.cell(std::string("FAILED"));
    };

    for (const auto &bm : ex.spec().benchmarks()) {
        for (const Family &f : families) {
            auto row = t.row();
            row.cell(bm).cell(std::string(f.name));
            lat_cell(row, ex.result({.benchmark = bm,
                                     .scheme = f.compression,
                                     .threshold = 0.0}));
            for (double th : thresholds)
                lat_cell(row, ex.result({.benchmark = bm,
                                         .scheme = f.vaxx,
                                         .threshold = th}));
        }
    }
    emit(t, ex.spec(), "fig13_error_threshold");

    // QoR companion table: the mean and worst-case relative error each
    // scheme's delivered data carried at each threshold.
    emit(qor_table(ex, "threshold", &ExperimentPoint::threshold, 0),
         ex.spec(), "fig13_error_threshold_qor");
    return 0;
}
