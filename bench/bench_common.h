/**
 * @file
 * Shared infrastructure for the per-figure bench harnesses, re-exported
 * from the src/harness experiment subsystem: the ExperimentSpec fluent
 * builder (CLI-integrated), the parallel Experiment runner, the
 * TraceLibrary and the CSV+JSON table emitter.
 */
#ifndef APPROXNOC_BENCH_BENCH_COMMON_H
#define APPROXNOC_BENCH_BENCH_COMMON_H

#include <string>
#include <vector>

#include "cache/approx_cache.h"
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
using harness::ReplayResult;
using harness::TraceLibrary;

using harness::kReplayFlags;
using harness::make_progress;
using harness::points_table;
using harness::print_banner;

/** emit_table under the figure's name (CSV + JSON alongside). */
void emit(const Table &t, const ExperimentSpec &spec,
          const std::string &name);

} // namespace approxnoc::bench

#endif // APPROXNOC_BENCH_BENCH_COMMON_H
