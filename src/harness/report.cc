#include "harness/report.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "telemetry/error_profile.h"
#include "telemetry/phase_profiler.h"
#include "telemetry/telemetry.h"

namespace approxnoc::harness {

void
emit_table(const Table &t, const ExperimentConfig &cfg,
           const std::string &name)
{
    t.print(std::cout);
    std::error_code ec;
    std::filesystem::create_directories(cfg.csv_dir, ec);
    if (!ec)
        t.writeCsv(cfg.csv_dir + "/" + name + ".csv");
    const std::string &json_dir =
        cfg.json_dir.empty() ? cfg.csv_dir : cfg.json_dir;
    std::error_code jec;
    std::filesystem::create_directories(json_dir, jec);
    if (!jec)
        t.writeJson(json_dir + "/" + name + ".json", name);
    std::printf("\n[csv: %s/%s.csv] [json: %s/%s.json]\n", cfg.csv_dir.c_str(),
                name.c_str(), json_dir.c_str(), name.c_str());
}

void
print_banner(const std::string &figure, const ExperimentSpec &spec,
             std::size_t runs, const char *unit)
{
    // "32/64/128": every value a hardware dimension of the grid takes.
    auto values = [](const auto &dim) {
        std::string s;
        for (const auto &v : dim) {
            if (!s.empty())
                s += '/';
            s += std::to_string(v);
        }
        return s;
    };
    std::printf("== APPROX-NoC reproduction: %s ==\n", figure.c_str());
    std::printf(
        "config: 4x4 concentrated 2D mesh (32 nodes), 3-stage routers, "
        "4 VCs x 4 flits, %s-bit flits, XY wormhole\n",
        values(spec.flitBits()).c_str());
    // A harness that parses its command line shows the threshold and
    // the ratio only when it reads their flags.
    auto reads = [&](const std::string &flag) {
        const auto &flags = spec.cliFlags();
        return !flags ||
               std::find(flags->begin(), flags->end(), flag) != flags->end();
    };
    std::printf("        ");
    if (reads("threshold"))
        std::printf("error threshold %.0f%%, ", spec.thresholds().front());
    if (reads("approx-ratio"))
        std::printf("approximable ratio %.0f%%, ",
                    spec.approxRatios().front() * 100.0);
    std::printf("%s-entry PMTs\n", values(spec.pmtEntries()).c_str());
    if (runs) {
        const unsigned jobs = resolve_jobs(spec.config().jobs);
        std::printf("        %zu %s, %u worker thread%s\n", runs, unit, jobs,
                    jobs == 1 ? "" : "s");
    }
    std::printf("\n");
}

Table
points_table(const Experiment &ex)
{
    Table t({"benchmark", "scheme", "threshold", "approx_ratio", "load",
             "status", "queue_lat", "net_lat", "decode_lat", "total_lat",
             "quality", "exact_frac", "approx_frac", "compr_ratio",
             "data_flits", "packets", "dyn_power_mw"});
    for (const ExperimentPoint &p : ex.spec().points()) {
        const PointResult &r = ex.resultAt(p.index);
        auto row = t.row();
        row.cell(p.benchmark)
            .cell(to_string(p.scheme))
            .cell(p.threshold, 1)
            .cell(p.approx_ratio, 2)
            .cell(p.load, 3);
        if (!r.ok) {
            row.cell(std::string("FAILED: ") + r.error);
            for (int i = 0; i < 11; ++i)
                row.cell(std::string("-"));
        } else {
            row.cell(std::string("ok"))
                .cell(r.replay.queue_lat, 2)
                .cell(r.replay.net_lat, 2)
                .cell(r.replay.decode_lat, 2)
                .cell(r.replay.total_lat, 2)
                .cell(r.replay.quality, 4)
                .cell(r.replay.exact_fraction, 3)
                .cell(r.replay.approx_fraction, 3)
                .cell(r.replay.compression_ratio, 3)
                .cell(static_cast<long>(r.replay.data_flits))
                .cell(static_cast<long>(r.replay.packets))
                .cell(r.replay.dynamic_power_mw, 3);
        }
    }
    return t;
}

template <typename Profile>
bool
write_report(const std::string &dir, const std::string &name,
             const ReportParts<Profile> &parts, const Profile *harness)
{
    Profile merged;
    if (harness)
        merged.merge(*harness);
    for (const auto &[label, p] : parts)
        if (p)
            merged.merge(*p);
    return telemetry::write_json_artifact(
        dir, name + ".json", [&](std::ostream &os) {
            os << "{\n\"schema\": \"approxnoc-" << name << "-report-v1\",\n";
            os << "\"points\": {";
            bool first = true;
            for (const auto &[label, p] : parts) {
                if (!p)
                    continue;
                if (!first)
                    os << ",";
                first = false;
                os << "\n\"" << label << "\": ";
                p->writeJson(os);
            }
            os << (first ? "" : "\n") << "},\n\"merged\": ";
            merged.writeJson(os);
            os << "}\n";
        });
}

template bool write_report(const std::string &, const std::string &,
                           const ReportParts<telemetry::ErrorProfile> &,
                           const telemetry::ErrorProfile *);
template bool write_report(const std::string &, const std::string &,
                           const ReportParts<telemetry::PhaseProfiler> &,
                           const telemetry::PhaseProfiler *);

} // namespace approxnoc::harness
