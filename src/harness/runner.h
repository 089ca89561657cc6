/**
 * @file
 * Parallel experiment execution: each `run` call fans a list of
 * independent jobs out over up to `jobs` lanes (the calling thread
 * plus fresh threads that join before `run` returns). Each lane takes
 * the next unclaimed job index from a shared counter, so load
 * imbalance between points (saturated vs idle networks, large vs
 * small traces) never leaves a lane idle while work remains.
 *
 * Results are always delivered indexed by job position, so output is
 * bit-identical regardless of the worker count or completion order —
 * the determinism contract every harness binary relies on.
 */
#ifndef APPROXNOC_HARNESS_RUNNER_H
#define APPROXNOC_HARNESS_RUNNER_H

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace approxnoc::harness {

/** Completion state of one parallel job. */
struct JobStatus {
    bool ok = true;
    std::string error; ///< exception text when !ok
};

/** Outcome of one job in a typed parallel map. */
template <typename R> struct Outcome {
    bool ok = false;
    R value{};
    std::string error;
};

/**
 * Progress callback: (jobs finished, jobs total). Serialized, and
 * called with 1, 2, ..., total in that order.
 */
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/**
 * Executes batches of independent jobs over a fixed worker count.
 * `jobs == 0` selects the hardware concurrency; `jobs == 1` runs
 * inline on the calling thread (no threads spawned).
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(unsigned jobs = 1, ProgressFn progress = {});

    /** Worker count after resolving 0 -> hardware concurrency. */
    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(i) for every i in [0, n) on `min(jobs, n)` lanes: the
     * calling thread and `min(jobs, n) - 1` threads started for this
     * call. Exceptions thrown by a job are captured into its
     * JobStatus; the remaining jobs still run.
     */
    std::vector<JobStatus> run(std::size_t n,
                               const std::function<void(std::size_t)> &fn);

    /**
     * Typed convenience: results land at their job's index so callers
     * iterate in deterministic order. A throwing job yields
     * `ok == false` with a default-constructed value.
     */
    template <typename Fn,
              typename R = std::decay_t<std::invoke_result_t<Fn, std::size_t>>>
    std::vector<Outcome<R>>
    map(std::size_t n, Fn &&fn)
    {
        std::vector<Outcome<R>> out(n);
        auto statuses = run(n, [&](std::size_t i) { out[i].value = fn(i); });
        for (std::size_t i = 0; i < n; ++i) {
            out[i].ok = statuses[i].ok;
            out[i].error = std::move(statuses[i].error);
        }
        return out;
    }

  private:
    unsigned jobs_;
    ProgressFn progress_;
};

/** `jobs == 0` -> hardware concurrency (at least 1). */
unsigned resolve_jobs(unsigned jobs);

} // namespace approxnoc::harness

#endif // APPROXNOC_HARNESS_RUNNER_H
