#include "harness/trace_library.h"

#include <algorithm>

#include "cache/approx_cache.h"
#include "common/log.h"
#include "harness/runner.h"
#include "workloads/workload.h"

namespace approxnoc::harness {

const CommTrace &
TraceLibrary::get(const std::string &benchmark) const
{
    auto it = traces_.find(benchmark);
    if (it == traces_.end())
        ANOC_FATAL("no trace for '", benchmark,
                   "': TraceLibrary::prefetch did not generate it");
    return it->second;
}

void
TraceLibrary::prefetch(const std::vector<std::string> &benchmarks,
                       ExperimentRunner &runner)
{
    std::vector<std::string> missing;
    for (const auto &bm : benchmarks)
        if (!traces_.count(bm) &&
            std::find(missing.begin(), missing.end(), bm) == missing.end())
            missing.push_back(bm);
    auto out = runner.map(missing.size(), [&](std::size_t i) {
        // The paper's trace-collection step: run the kernel through
        // the coherent cache model with a precise codec, recording
        // every miss request/response and writeback as a packet.
        CacheConfig ccfg; // 16 cores + 16 homes = Table 1's 32 endpoints
        ApproxCacheSystem mem(ccfg, nullptr);
        CommTrace trace;
        mem.setTraceSink(&trace);
        make_workload(missing[i], scale_, seed_)->run(mem);
        return trace;
    });
    // The lanes have joined: the map is written on this thread only.
    for (std::size_t i = 0; i < missing.size(); ++i) {
        if (!out[i].ok)
            ANOC_FATAL("trace generation for '", missing[i],
                       "' failed: ", out[i].error);
        const CommTrace &t =
            traces_.emplace(missing[i], std::move(out[i].value))
                .first->second;
        ANOC_INFORM("trace ", missing[i], ": ", t.size(), " records, ",
                    t.duration(), " cycles");
    }
}

double
TraceLibrary::naturalLoad(const CommTrace &t, unsigned n_nodes,
                          std::size_t records)
{
    const std::size_t n = std::min(records, t.size());
    const Cycle duration = n == 0 ? 0 : t.records()[n - 1].t;
    if (duration == 0)
        return 0.0;
    std::uint64_t flits = 0;
    for (std::size_t i = 0; i < n; ++i)
        flits += t.records()[i].isData() ? 9 : 1;
    return static_cast<double>(flits) /
           (static_cast<double>(duration) * n_nodes);
}

} // namespace approxnoc::harness
