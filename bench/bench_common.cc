#include "bench/bench_common.h"

#include "telemetry/error_profile.h"

namespace approxnoc::bench {

void
emit(const Table &t, const ExperimentSpec &spec, const std::string &name)
{
    harness::emit_table(t, spec.config(), name);
}

Table
qor_table(const Experiment &ex, const std::string &column,
          double ExperimentPoint::*field, int precision)
{
    Table q({"benchmark", "scheme", column, "mean_rel_err",
             "mean_abs_rel_err", "max_abs_rel_err"});
    for (const auto &pt : ex.spec().points()) {
        const PointResult &pr = ex.resultAt(pt.index);
        auto row = q.row();
        row.cell(pt.benchmark)
            .cell(std::string(to_string(pt.scheme)))
            .cell(pt.*field, precision);
        if (pr.ok && pr.replay.qor) {
            row.cell(pr.replay.qor->mean(), 6)
                .cell(pr.replay.qor->meanAbs(), 6)
                .cell(pr.replay.qor->maxAbs(), 6);
        } else {
            row.cell(std::string("FAILED"))
                .cell(std::string("FAILED"))
                .cell(std::string("FAILED"));
        }
    }
    return q;
}

} // namespace approxnoc::bench
