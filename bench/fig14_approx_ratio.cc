/**
 * @file
 * Figure 14: approximable-packet-ratio sensitivity. Average packet
 * latency for the DI-based and FP-based VAXX schemes as the fraction
 * of approximable data packets grows from 25% to 75%, against plain
 * compression.
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
    const std::vector<double> ratios = {0.25, 0.50, 0.75};

    // One grid: plain compression at the CLI ratio, the VAXX variants
    // at each paper ratio. A -1 sentinel marks the compression runs so
    // they never collide with a swept value.
    ExperimentSpec::Builder builder;
    builder.fromCli(argc, argv,
                    "Figure 14: approximable packet ratio sensitivity");
    double base_ratio = builder.build().approxRatios().front();
    builder
        .schemes({Scheme::DiComp, Scheme::DiVaxx, Scheme::FpComp,
                  Scheme::FpVaxx})
        .approxRatios({-1.0, 0.25, 0.50, 0.75})
        .filter([](const ExperimentPoint &p) {
            return is_vaxx(p.scheme) ? p.approx_ratio >= 0.0
                                     : p.approx_ratio < 0.0;
        });
    Experiment ex(builder.build());
    print_banner("Figure 14 (approximable-ratio sensitivity)", ex.spec());
    ex.run([&](const ExperimentPoint &pt) {
        ExperimentPoint run = pt;
        if (run.approx_ratio < 0.0)
            run.approx_ratio = base_ratio;
        return run_replay_point(ex.traces().get(run.benchmark), run,
                                ex.spec().config());
    });

    Table t({"benchmark", "family", "compression", "25%_approx",
             "50%_approx", "75%_approx"});

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
                                     .approx_ratio = -1.0}));
            for (double ratio : ratios)
                lat_cell(row, ex.result({.benchmark = bm,
                                         .scheme = f.vaxx,
                                         .approx_ratio = ratio}));
        }
    }
    emit(t, ex.spec(), "fig14_approx_ratio");

    // QoR companion table: the mean and worst-case relative error each
    // scheme's delivered data carried at each approximable ratio (the
    // -1 sentinel rows are the plain-compression baseline at the CLI
    // ratio).
    emit(qor_table(ex, "approx_ratio", &ExperimentPoint::approx_ratio, 2),
         ex.spec(), "fig14_approx_ratio_qor");
    return 0;
}
