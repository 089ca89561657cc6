/**
 * @file
 * Figures 13 and 14 from one grid: average packet latency of DI-VAXX
 * and FP-VAXX as the error threshold grows (Fig. 13: 5/10/20%, at the
 * --approx-ratio R) and as the approximable packet ratio grows
 * (Fig. 14: 25/50/75%, at the --threshold T), against plain
 * compression at threshold 0 and ratio R, which both figures share
 * (DI-COMP and FP-COMP read no threshold). A point both figures show
 * runs once. Each figure gets a QoR companion table: the relative
 * error of each point's delivered data. The schemes are the figures'
 * own, so there is no --schemes flag.
 */
#include <algorithm>
#include <optional>

#include "bench/bench_common.h"
#include "telemetry/error_profile.h"

using namespace approxnoc;
using namespace approxnoc::bench;

namespace {

/** Plain compression and its VAXX variant. */
struct Family {
    const char *name;
    Scheme compression;
    Scheme vaxx;
};

const Family kFamilies[] = {
    {"DI-based", Scheme::DiComp, Scheme::DiVaxx},
    {"FP-based", Scheme::FpComp, Scheme::FpVaxx},
};

/** One figure: VAXX swept along one coordinate, the other at its CLI
 *  value. */
struct Figure {
    const char *name;
    std::vector<std::string> columns; ///< latency column per swept value
    const char *coordinate;           ///< QoR column of the swept value
    std::optional<double> PointQuery::*swept;
    std::vector<double> values;
    int precision; ///< decimals of the QoR coordinate
};

/** The points of one row of @p fig in column order, any benchmark:
 *  plain compression, then VAXX at each swept value. */
std::vector<PointQuery>
row_points(const Figure &fig, const Family &f, double threshold, double ratio)
{
    std::vector<PointQuery> row = {{.scheme = f.compression,
                                    .threshold = 0.0,
                                    .approx_ratio = ratio}};
    for (double v : fig.values) {
        PointQuery q{.scheme = f.vaxx,
                     .threshold = threshold,
                     .approx_ratio = ratio};
        q.*fig.swept = v;
        row.push_back(q);
    }
    return row;
}

/**
 * The QoR companion of @p fig in long form, one row per point it
 * shows: the signed mean, mean-absolute and worst-case relative error
 * the error ledger measured at that point.
 */
Table
qor_table(const Experiment &ex, const Figure &fig,
          const std::vector<PointQuery> &shown)
{
    Table t({"benchmark", "scheme", fig.coordinate, "mean_rel_err",
             "mean_abs_rel_err", "max_abs_rel_err"});
    for (const PointQuery &q : shown) {
        const PointResult &pr = ex.result(q);
        auto row = t.row();
        row.cell(*q.benchmark)
            .cell(to_string(*q.scheme))
            .cell(*(q.*fig.swept), fig.precision);
        if (pr.ok && pr.replay.qor)
            row.cell(pr.replay.qor->mean(), 6)
                .cell(pr.replay.qor->meanAbs(), 6)
                .cell(pr.replay.qor->maxAbs(), 6);
        else
            for (int c = 0; c < 3; ++c)
                row.cell(std::string("FAILED"));
    }
    return t;
}

/** Write @p fig's latency table and its QoR companion. */
void
emit_figure(const Experiment &ex, const Figure &fig, double threshold,
            double ratio)
{
    std::vector<std::string> header = {"benchmark", "family", "compression"};
    header.insert(header.end(), fig.columns.begin(), fig.columns.end());
    Table t(header);
    std::vector<PointQuery> shown;
    for (const auto &bm : ex.spec().benchmarks()) {
        for (const Family &f : kFamilies) {
            auto row = t.row();
            row.cell(bm).cell(std::string(f.name));
            for (PointQuery q : row_points(fig, f, threshold, ratio)) {
                q.benchmark = bm;
                const PointResult &pr = ex.result(q);
                if (pr.ok)
                    row.cell(pr.replay.total_lat, 2);
                else
                    row.cell(std::string("FAILED"));
                shown.push_back(q);
            }
        }
    }
    emit(t, ex.spec(), fig.name);
    emit(qor_table(ex, fig, shown), ex.spec(),
         std::string(fig.name) + "_qor");
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentSpec::Builder builder;
    builder.fromCli(argc, argv,
                    "Figures 13 and 14: error-threshold and "
                    "approximable-ratio sensitivity",
                    kReplayFlags);
    const ExperimentSpec cli = builder.build();
    const double threshold = cli.thresholds().front();
    const double ratio = cli.approxRatios().front();

    const Figure figures[] = {
        {"fig13_error_threshold",
         {"5%_threshold", "10%_threshold", "20%_threshold"}, "threshold",
         &PointQuery::threshold, {5.0, 10.0, 20.0}, 0},
        {"fig14_approx_ratio", {"25%_approx", "50%_approx", "75%_approx"},
         "approx_ratio", &PointQuery::approx_ratio, {0.25, 0.50, 0.75}, 2},
    };

    // The grid is every point some row shows, each once: its threshold
    // and ratio dimensions hold the values the rows name (the CLI
    // values first, for the banner), and the filter drops the
    // cross-product points no row shows.
    std::vector<PointQuery> named;
    for (const Figure &fig : figures)
        for (const Family &f : kFamilies)
            for (const PointQuery &q : row_points(fig, f, threshold, ratio))
                named.push_back(q);
    std::vector<double> thresholds = {threshold}, ratios = {ratio};
    auto add = [](std::vector<double> &dim, double v) {
        if (std::find(dim.begin(), dim.end(), v) == dim.end())
            dim.push_back(v);
    };
    for (const PointQuery &q : named) {
        add(thresholds, *q.threshold);
        add(ratios, *q.approx_ratio);
    }
    builder
        .schemes({Scheme::DiComp, Scheme::DiVaxx, Scheme::FpComp,
                  Scheme::FpVaxx})
        .thresholds(thresholds)
        .approxRatios(ratios)
        .filter([&](const ExperimentPoint &p) {
            return std::any_of(named.begin(), named.end(),
                               [&](const PointQuery &q) {
                                   return q.matches(p);
                               });
        });
    Experiment ex(builder.build());
    print_banner("Figures 13 and 14 (error-threshold and "
                 "approximable-ratio sensitivity)",
                 ex.spec(), ex.spec().size());
    ex.run();

    for (const Figure &fig : figures)
        emit_figure(ex, fig, threshold, ratio);
    return 0;
}
