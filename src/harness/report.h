/**
 * @file
 * Uniform result emission for harness binaries: print the table, then
 * write it as CSV and JSON under the spec's output directories.
 */
#ifndef APPROXNOC_HARNESS_REPORT_H
#define APPROXNOC_HARNESS_REPORT_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

namespace approxnoc::harness {

/** (point label, per-point profile) pairs, in spec order. */
template <typename Profile>
using ReportParts =
    std::vector<std::pair<std::string, std::shared_ptr<const Profile>>>;

/**
 * Print @p t and write `<csv_dir>/<name>.csv` plus
 * `<json_dir|csv_dir>/<name>.json` (best effort).
 */
void emit_table(const Table &t, const ExperimentConfig &cfg,
                const std::string &name);

/**
 * Print the Table-1 style banner every harness binary emits, at the
 * flit widths and PMT sizes of @p spec, with its error threshold and
 * approximable ratio unless the flags it was given to fromCli() omit
 * `threshold` or `approx-ratio`. @p runs counts what the harness runs,
 * in @p unit; a harness that runs no simulation passes no count.
 */
void print_banner(const std::string &figure, const ExperimentSpec &spec,
                  std::size_t runs = 0, const char *unit = "grid points");

/**
 * The grid of @p ex as one table, one row per point in spec order:
 * coordinates, status, then every ReplayResult metric. Failed points
 * carry "FAILED: <error>" and "-" in every metric column.
 */
Table points_table(const Experiment &ex);

/**
 * Write `<dir>/<name>.json` (schema `approxnoc-<name>-report-v1`):
 * every point's profile plus the spec-order merge of all of them. Null
 * profiles (failed points) are skipped. A non-null @p harness, work
 * done for no one point (trace generation), is folded into the merge
 * first and listed under no point. Best effort like the other
 * telemetry artifacts; returns false when the file cannot be written.
 *
 * Defined for the two sweep-level reports:
 * - `qor`, telemetry::ErrorProfile: merge is order-independent, so
 *   the file is byte-identical at any --jobs setting;
 * - `profile`, telemetry::PhaseProfiler: phase timings merged by name.
 *   Wall-clock derived, so outside the byte-identical determinism
 *   contract.
 */
template <typename Profile>
bool write_report(const std::string &dir, const std::string &name,
                  const ReportParts<Profile> &parts,
                  const Profile *harness = nullptr);

} // namespace approxnoc::harness

#endif // APPROXNOC_HARNESS_REPORT_H
