/**
 * @file
 * Shared infrastructure for the per-figure bench harnesses, re-exported
 * from the src/harness experiment subsystem: the ExperimentSpec fluent
 * builder (CLI-integrated), the parallel Experiment runner, the
 * thread-safe TraceLibrary, the replay point executor and the CSV+JSON
 * table emitter.
 */
#ifndef APPROXNOC_BENCH_BENCH_COMMON_H
#define APPROXNOC_BENCH_BENCH_COMMON_H

#include <string>
#include <vector>

#include "cache/approx_cache.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/codec_factory.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "noc/network.h"
#include "power/power_model.h"
#include "sim/simulator.h"
#include "traffic/replay.h"
#include "traffic/trace.h"
#include "workloads/workload.h"

namespace approxnoc::bench {

// The unified experiment API, re-exported for harness binaries.
using harness::Experiment;
using harness::ExperimentConfig;
using harness::ExperimentPoint;
using harness::ExperimentRunner;
using harness::ExperimentSpec;
using harness::Outcome;
using harness::PointQuery;
using harness::PointResult;
using harness::ReplayJob;
using harness::ReplayResult;
using harness::ResultSink;
using harness::TraceLibrary;

using harness::derive_seed;
using harness::emit_table;
using harness::make_progress;
using harness::parse_benchmark_list;
using harness::parse_scheme_list;
using harness::print_banner;
using harness::run_replay;
using harness::run_replay_point;

/** emit_table under the figure's name (CSV + JSON alongside). */
void emit(const Table &t, const ExperimentSpec &spec,
          const std::string &name);

/**
 * The QoR companion table of a replay grid, in long form (one row per
 * point): the signed mean, mean-absolute and worst-case relative error
 * the error ledger measured at that point, from its ErrorProfile. The
 * point is keyed by benchmark, scheme and the swept coordinate
 * @p field, printed under @p column with @p precision decimals.
 */
Table qor_table(const Experiment &ex, const std::string &column,
                double ExperimentPoint::*field, int precision);

} // namespace approxnoc::bench

#endif // APPROXNOC_BENCH_BENCH_COMMON_H
