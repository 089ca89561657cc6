/**
 * @file
 * The paper grid — every benchmark x every scheme at the Table 1
 * operating point — replayed once, then written as the four figure
 * tables that share it plus the raw per-point grid:
 *
 *  - Figure 9: average packet latency broken into queueing, network
 *    and decode components, plus the overall data approximation
 *    quality (AVG rows).
 *  - Figure 10: (a) fraction of words encoded, split into exact
 *    compression and approximation, and (b) compression ratio, with
 *    GMEAN rows. Baseline has no row, as the paper plots no Baseline
 *    bar.
 *  - Figure 11: data flits injected, normalized to Baseline (AVG rows).
 *  - Figure 15: dynamic power normalized to Baseline, from the
 *    event-energy power model, with the energy-delay product (AVG
 *    rows).
 *
 * A point's result does not depend on the rest of the grid, so a
 * subset run (say `--schemes=FP-VAXX`) writes the rows those points
 * have in the full grid. With `--jobs=N` the grid runs on N lanes and
 * every table stays bit-identical to `--jobs=1`.
 */
#include <cmath>
#include <cstdio>
#include <map>

#include "bench/bench_common.h"

using namespace approxnoc;
using namespace approxnoc::bench;

namespace {

/** A failed point's row: FAILED, then "-" in every other metric column. */
void
fail_row(Table &t, const std::string &bm, Scheme s)
{
    auto row = t.row();
    row.cell(bm).cell(to_string(s)).cell(std::string("FAILED"));
    for (std::size_t i = 3; i < t.header().size(); ++i)
        row.cell(std::string("-"));
}

Table
fig09(const Experiment &ex)
{
    Table t({"benchmark", "scheme", "queue_lat", "net_lat", "decode_lat",
             "total_lat", "data_quality"});
    std::map<Scheme, std::vector<double>> avg_lat;
    std::map<Scheme, std::vector<double>> avg_q;
    for (const auto &bm : ex.spec().benchmarks()) {
        for (Scheme s : ex.spec().schemes()) {
            const PointResult &pr = ex.result({.benchmark = bm, .scheme = s});
            if (!pr.ok) {
                fail_row(t, bm, s);
                continue;
            }
            const ReplayResult &r = pr.replay;
            t.row()
                .cell(bm)
                .cell(to_string(s))
                .cell(r.queue_lat, 2)
                .cell(r.net_lat, 2)
                .cell(r.decode_lat, 2)
                .cell(r.total_lat, 2)
                .cell(r.quality, 4);
            avg_lat[s].push_back(r.total_lat);
            avg_q[s].push_back(r.quality);
        }
    }
    for (Scheme s : ex.spec().schemes()) {
        if (avg_lat[s].empty())
            continue;
        double lat = 0, q = 0;
        for (double v : avg_lat[s])
            lat += v;
        for (double v : avg_q[s])
            q += v;
        std::size_t n = avg_lat[s].size();
        t.row()
            .cell(std::string("AVG"))
            .cell(to_string(s))
            .cell(std::string("-"))
            .cell(std::string("-"))
            .cell(std::string("-"))
            .cell(lat / n, 2)
            .cell(q / n, 4);
    }
    return t;
}

Table
fig10(const Experiment &ex)
{
    Table t({"benchmark", "scheme", "exact_frac", "approx_frac",
             "encoded_frac", "compr_ratio"});
    std::map<Scheme, std::pair<double, double>> gmean; // log sums
    std::map<Scheme, std::size_t> count;
    for (const auto &bm : ex.spec().benchmarks()) {
        for (Scheme s : ex.spec().schemes()) {
            if (s == Scheme::Baseline)
                continue;
            const PointResult &pr = ex.result({.benchmark = bm, .scheme = s});
            if (!pr.ok) {
                fail_row(t, bm, s);
                continue;
            }
            const ReplayResult &r = pr.replay;
            t.row()
                .cell(bm)
                .cell(to_string(s))
                .cell(r.exact_fraction, 3)
                .cell(r.approx_fraction, 3)
                .cell(r.exact_fraction + r.approx_fraction, 3)
                .cell(r.compression_ratio, 3);
            double ef = std::max(1e-6, r.exact_fraction + r.approx_fraction);
            gmean[s].first += std::log(ef);
            gmean[s].second += std::log(std::max(1e-6, r.compression_ratio));
            ++count[s];
        }
    }
    for (Scheme s : ex.spec().schemes()) {
        if (!count[s])
            continue;
        double n = static_cast<double>(count[s]);
        t.row()
            .cell(std::string("GMEAN"))
            .cell(to_string(s))
            .cell(std::string("-"))
            .cell(std::string("-"))
            .cell(std::exp(gmean[s].first / n), 3)
            .cell(std::exp(gmean[s].second / n), 3);
    }
    return t;
}

Table
fig11(const Experiment &ex)
{
    Table t({"benchmark", "scheme", "data_flits", "normalized"});
    std::map<Scheme, double> sums;
    std::map<Scheme, std::size_t> counts;
    for (const auto &bm : ex.spec().benchmarks()) {
        std::uint64_t base_flits = 0;
        for (Scheme s : ex.spec().schemes()) {
            const PointResult &pr = ex.result({.benchmark = bm, .scheme = s});
            if (!pr.ok) {
                fail_row(t, bm, s);
                continue;
            }
            const ReplayResult &r = pr.replay;
            if (s == Scheme::Baseline)
                base_flits = r.data_flits;
            double norm = base_flits
                              ? static_cast<double>(r.data_flits) /
                                    static_cast<double>(base_flits)
                              : 1.0;
            t.row()
                .cell(bm)
                .cell(to_string(s))
                .cell(static_cast<long>(r.data_flits))
                .cell(norm, 3);
            sums[s] += norm;
            ++counts[s];
        }
    }
    for (Scheme s : ex.spec().schemes()) {
        if (!counts[s])
            continue;
        t.row()
            .cell(std::string("AVG"))
            .cell(to_string(s))
            .cell(std::string("-"))
            .cell(sums[s] / static_cast<double>(counts[s]), 3);
    }
    return t;
}

Table
fig15(const Experiment &ex)
{
    Table t({"benchmark", "scheme", "dyn_power_mw", "normalized",
             "edp_normalized"});
    std::map<Scheme, double> sums;
    std::map<Scheme, double> edp_sums;
    std::map<Scheme, std::size_t> counts;
    for (const auto &bm : ex.spec().benchmarks()) {
        double base_mw = 0.0, base_lat = 0.0;
        for (Scheme s : ex.spec().schemes()) {
            const PointResult &pr = ex.result({.benchmark = bm, .scheme = s});
            if (!pr.ok) {
                fail_row(t, bm, s);
                continue;
            }
            const ReplayResult &r = pr.replay;
            if (s == Scheme::Baseline) {
                base_mw = r.dynamic_power_mw;
                base_lat = r.total_lat;
            }
            double norm =
                base_mw > 0 ? r.dynamic_power_mw / base_mw : 1.0;
            // Energy-delay product relative to Baseline: the combined
            // efficiency view (compression wins on both axes).
            double edp = base_mw > 0 && base_lat > 0
                             ? norm * (r.total_lat / base_lat)
                             : 1.0;
            t.row()
                .cell(bm)
                .cell(to_string(s))
                .cell(r.dynamic_power_mw, 3)
                .cell(norm, 3)
                .cell(edp, 3);
            sums[s] += norm;
            edp_sums[s] += edp;
            ++counts[s];
        }
    }
    for (Scheme s : ex.spec().schemes()) {
        if (!counts[s])
            continue;
        t.row()
            .cell(std::string("AVG"))
            .cell(to_string(s))
            .cell(std::string("-"))
            .cell(sums[s] / static_cast<double>(counts[s]), 3)
            .cell(edp_sums[s] / static_cast<double>(counts[s]), 3);
    }
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentSpec::Builder builder;
    builder.fromCli(argc, argv,
                    "Paper grid: every benchmark x scheme point, the "
                    "Figure 9/10/11/15 tables from one run");
    Experiment ex(builder.build());
    const ExperimentSpec &spec = ex.spec();
    print_banner("Paper grid (fig09/10/11/15 from one run)", spec);
    ex.run();

    emit(ex.results().toTable(spec), spec, "sweep_points");
    emit(fig09(ex), spec, "fig09_latency_breakdown");
    emit(fig10(ex), spec, "fig10_compression");
    emit(fig11(ex), spec, "fig11_flit_reduction");
    emit(fig15(ex), spec, "fig15_power");

    const RunningStat &summary = ex.results().latencySummary();
    std::printf("\n%zu points, %zu failed; per-point mean latency "
                "min/mean/max = %.2f / %.2f / %.2f cycles\n",
                spec.size(), ex.results().failures(), summary.min(),
                summary.mean(), summary.max());
    return ex.results().failures() ? 1 : 0;
}
