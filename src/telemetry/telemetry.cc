#include "telemetry/telemetry.h"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace approxnoc::telemetry {

namespace {

/** Open @p dir/@p file for writing, creating @p dir as needed. */
bool
open_artifact(const std::string &dir, const std::string &file,
              std::ofstream &os)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const auto path = std::filesystem::path(dir) / file;
    os.open(path);
    if (!os) {
        std::cerr << "telemetry: cannot write " << path.string() << "\n";
        return false;
    }
    return true;
}

} // namespace

std::string
sanitize_component(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        else
            out.push_back('_');
    }
    return out;
}

PointTelemetry::PointTelemetry(const TelemetryOptions &opts)
    : opts_(opts), metrics_(std::make_shared<MetricRegistry>())
{
    if (opts_.samplingEnabled())
        sampler_ = std::make_unique<Sampler>(opts_.sample_interval);
    if (opts_.traceEnabled())
        tracer_ = std::make_unique<PacketTracer>(opts_.pid);
}

void
PointTelemetry::write() const
{
    std::ofstream os;
    if (tracer_ && open_artifact(opts_.trace_dir,
                                 opts_.label + ".trace.json", os)) {
        tracer_->writeJson(os);
        os.close();
    }
    if (opts_.metricsEnabled()) {
        if (open_artifact(opts_.metrics_dir, opts_.label + ".metrics.json",
                          os)) {
            metrics_->writeJson(os);
            os.close();
        }
        if (sampler_) {
            if (open_artifact(opts_.metrics_dir,
                              opts_.label + ".timeseries.csv", os)) {
                sampler_->writeCsv(os);
                os.close();
            }
            if (open_artifact(opts_.metrics_dir,
                              opts_.label + ".timeseries.json", os)) {
                sampler_->writeJson(os);
                os.close();
            }
        }
    }
}

std::string
PointTelemetry::pointLabel(std::size_t index, const std::string &benchmark,
                           const std::string &scheme)
{
    // Appended piecewise: GCC 12 reports a false -Wrestrict on the
    // equivalent chain of operator+ temporaries at -O3.
    std::string label = "p";
    label += std::to_string(index);
    label += '_';
    label += sanitize_component(benchmark);
    label += '_';
    label += sanitize_component(scheme);
    return label;
}

bool
write_merged_metrics(
    const std::string &dir, const std::string &name,
    const std::vector<std::shared_ptr<const MetricRegistry>> &parts)
{
    MetricRegistry merged;
    for (const auto &p : parts)
        if (p)
            merged.merge(*p);
    std::ofstream os;
    if (!open_artifact(dir, name, os))
        return false;
    merged.writeJson(os);
    return static_cast<bool>(os);
}

bool
write_json_artifact(const std::string &dir, const std::string &file,
                    const std::function<void(std::ostream &)> &writer)
{
    std::ofstream os;
    if (!open_artifact(dir, file, os))
        return false;
    writer(os);
    return static_cast<bool>(os);
}

} // namespace approxnoc::telemetry
