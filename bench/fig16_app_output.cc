/**
 * @file
 * Figure 16: application output error and normalized performance as
 * the data error budget grows (0 / 10 / 20 %), from full workload runs
 * through the coherent cache model with the codec on the response
 * path (the paper's Pin + gem5 methodology).
 */
#include <cstdio>

#include "bench/bench_common.h"
#include "common/rng.h"

using namespace approxnoc;
using namespace approxnoc::bench;

namespace {

WorkloadResult
run_workload_point(const std::string &bm, Scheme scheme, double threshold,
                   const ExperimentSpec &spec)
{
    CacheConfig ccfg; // Sec. 5.4: 16 cores, 64 KB 2-way L1
    ccfg.approx_ratio = spec.approxRatios().front();
    CodecConfig cc;
    cc.n_nodes = ccfg.n_nodes;
    cc.error_threshold_pct = threshold;
    auto codec = CodecFactory::create(scheme, cc);
    ApproxCacheSystem mem(ccfg, codec.get());
    auto wl = make_workload(bm, spec.config().scale);
    return wl->run(mem);
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentSpec spec =
        ExperimentSpec::Builder()
            .fromCli(argc, argv,
                     "Figure 16: application output accuracy + "
                     "normalized performance",
                     {"benchmarks", "schemes", "approx-ratio", "scale",
                      "jobs", "progress"})
            .build();
    // DI-VAXX by default: approximating to learned reference values
    // surfaces the error-budget sensitivity the paper's Fig. 16 plots
    // (FP-VAXX's static patterns rarely alter integer data at all).
    Scheme scheme = Scheme::DiVaxx;
    if (spec.schemes().size() < 5) { // user narrowed the scheme set
        for (Scheme s : spec.schemes())
            if (s == Scheme::DiVaxx || s == Scheme::FpVaxx)
                scheme = s;
    }
    const std::vector<double> budgets = {0.0, 10.0, 20.0};

    // Per benchmark: one precise run, then one run per budget (the 0%
    // budget run doubles as the performance-normalization reference).
    struct Run {
        std::string bm;
        Scheme scheme;
        double threshold;
    };
    std::vector<Run> runs;
    for (const auto &bm : spec.benchmarks()) {
        runs.push_back({bm, Scheme::Baseline, 0.0});
        for (double budget : budgets)
            runs.push_back({bm, scheme, budget});
    }
    print_banner("Figure 16 (application output error, performance)", spec,
                 runs.size(), "workload runs");
    std::printf("scheme for approximate runs: %s "
                "(select with --schemes=FP-VAXX / DI-VAXX)\n\n",
                to_string(scheme).c_str());

    ExperimentRunner runner(spec.config().jobs,
                            make_progress(spec.config(), "workload runs"));
    std::vector<Outcome<WorkloadResult>> out =
        runner.map(runs.size(), [&](std::size_t i) {
            const Run &r = runs[i];
            return run_workload_point(r.bm, r.scheme, r.threshold, spec);
        });

    Table t({"benchmark", "error_budget_pct", "output_error_pct",
             "accuracy_pct", "normalized_performance"});

    const std::size_t per_bm = 1 + budgets.size();
    for (std::size_t b = 0; b < spec.benchmarks().size(); ++b) {
        const std::string &bm = spec.benchmarks()[b];
        auto wl = make_workload(bm, spec.config().scale);
        const Outcome<WorkloadResult> &precise = out[b * per_bm];
        const Outcome<WorkloadResult> &ref = out[b * per_bm + 1];
        for (std::size_t k = 0; k < budgets.size(); ++k) {
            const Outcome<WorkloadResult> &r = out[b * per_bm + 1 + k];
            if (!precise.ok || !ref.ok || !r.ok) {
                t.row()
                    .cell(bm)
                    .cell(budgets[k], 0)
                    .cell(std::string("FAILED"))
                    .cell(std::string("-"))
                    .cell(std::string("-"));
                continue;
            }
            double err = wl->outputError(precise.value, r.value);
            double perf =
                r.value.exec_cycles
                    ? static_cast<double>(ref.value.exec_cycles) /
                          static_cast<double>(r.value.exec_cycles)
                    : 1.0;
            t.row()
                .cell(bm)
                .cell(budgets[k], 0)
                .cell(err * 100.0, 2)
                .cell((1.0 - err) * 100.0, 2)
                .cell(perf, 3);
        }
    }
    emit(t, spec, "fig16_app_output");
    return 0;
}
