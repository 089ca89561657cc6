#include "harness/report.h"

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
print_banner(const std::string &figure, const ExperimentSpec &spec)
{
    const ExperimentConfig &cfg = spec.config();
    std::printf("== APPROX-NoC reproduction: %s ==\n", figure.c_str());
    std::printf(
        "config: 4x4 concentrated 2D mesh (32 nodes), 3-stage routers, "
        "4 VCs x 4 flits, 64-bit flits, XY wormhole\n");
    std::printf("        error threshold %.0f%%, approximable ratio %.0f%%, "
                "8-entry PMTs\n",
                spec.thresholds().front(),
                spec.approxRatios().front() * 100.0);
    std::printf("        %zu grid points, %u worker thread%s\n\n",
                spec.size(), resolve_jobs(cfg.jobs),
                resolve_jobs(cfg.jobs) == 1 ? "" : "s");
}

template <typename Profile>
bool
write_report(const std::string &dir, const std::string &name,
             const ReportParts<Profile> &parts)
{
    Profile merged;
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
                           const ReportParts<telemetry::ErrorProfile> &);
template bool write_report(const std::string &, const std::string &,
                           const ReportParts<telemetry::PhaseProfiler> &);

} // namespace approxnoc::harness
