#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace approxnoc::harness {

unsigned
resolve_jobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ExperimentRunner::ExperimentRunner(unsigned jobs, ProgressFn progress)
    : jobs_(resolve_jobs(jobs)), progress_(std::move(progress))
{}

std::vector<JobStatus>
ExperimentRunner::run(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    std::vector<JobStatus> statuses(n);
    std::atomic<std::size_t> next{0};
    std::mutex progress_mtx;
    std::size_t done = 0; // guarded by progress_mtx

    // One lane: claim indices until none is left. Exception capture
    // lives here, so job i's status lands at index i whichever lane
    // ran it.
    auto lane = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (const std::exception &e) {
                statuses[i].ok = false;
                statuses[i].error = e.what();
            } catch (...) {
                statuses[i].ok = false;
                statuses[i].error = "unknown exception";
            }
            if (progress_) {
                // Count and report under one lock, so the reports
                // arrive as 1, 2, ..., n.
                std::lock_guard<std::mutex> lock(progress_mtx);
                progress_(++done, n);
            }
        }
    };

    std::vector<std::jthread> lanes;
    for (std::size_t l = 1; l < std::min<std::size_t>(jobs_, n); ++l)
        lanes.emplace_back(lane);
    lane(); // the caller is the last lane
    lanes.clear(); // joins
    return statuses;
}

} // namespace approxnoc::harness
