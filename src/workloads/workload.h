/**
 * @file
 * Workload kernels standing in for the paper's PARSEC (simlarge) and
 * SSCA2 benchmarks (Sec. 5.1/5.4). Each kernel implements the same
 * algorithm the benchmark's region of interest runs, at reduced scale,
 * reading and writing its main data through an ApproxCacheSystem so
 * approximated NoC response data is actually consumed by the
 * computation. Approximable regions are annotated programmatically —
 * the role hand annotation plays in the paper — and each workload
 * defines the application-specific output-accuracy metric the paper's
 * Fig. 16 reports.
 */
#ifndef APPROXNOC_WORKLOADS_WORKLOAD_H
#define APPROXNOC_WORKLOADS_WORKLOAD_H

#include <memory>
#include <string>
#include <vector>

#include "cache/approx_cache.h"
#include "common/log.h"
#include "common/types.h"

namespace approxnoc {

/** Outcome of one workload run. */
struct WorkloadResult {
    /** The application output vector (metric-specific meaning). */
    std::vector<double> output;
    /** Execution time estimate from the cache system. */
    Cycle exec_cycles = 0;
    /** L1 miss rate observed. */
    double miss_rate = 0.0;
};

/**
 * Largest problem-size multiplier a kernel takes (`--scale`, checked
 * where the flag is read). Kernels size their data as std::size_t
 * products of the scale. ssca2's trace grows with its square: at 8 it
 * holds 152 M records, and generating it takes 30 s and peaks near
 * 4.2 GB (Release, 4-vCPU Xeon VM).
 */
inline constexpr unsigned kMaxScale = 8;

/** A benchmark kernel. Deterministic for a fixed (name, scale, seed). */
class Workload
{
  public:
    /** Panics unless 1 <= @p scale <= kMaxScale. */
    explicit Workload(unsigned scale = 1, std::uint64_t seed = 12345)
        : scale_(scale), seed_(seed)
    {
        ANOC_ASSERT(scale >= 1 && scale <= kMaxScale, "workload scale ",
                    scale, " is outside [1, ", kMaxScale, "]");
    }
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Benchmark name as the paper spells it. */
    virtual std::string name() const = 0;

    /** Run the kernel on @p mem (allocates, annotates, computes). */
    virtual WorkloadResult run(ApproxCacheSystem &mem) = 0;

    /**
     * Application output error of @p approx against @p precise in
     * [0, 1]. Default: mean relative difference over the output
     * vector, the paper's generic accuracy metric.
     */
    virtual double outputError(const WorkloadResult &precise,
                               const WorkloadResult &approx) const;

  protected:
    unsigned scale_;
    std::uint64_t seed_;
};

/** Mean relative elementwise difference, clamped to [0, 1]. */
double mean_relative_output_error(const std::vector<double> &precise,
                                  const std::vector<double> &approx);

/**
 * Build a workload by paper name: blackscholes, bodytrack, canneal,
 * fluidanimate, streamcluster, swaptions, x264, ssca2.
 * @param scale in [1, kMaxScale] multiplies the problem size.
 */
std::unique_ptr<Workload> make_workload(const std::string &name,
                                        unsigned scale = 1,
                                        std::uint64_t seed = 12345);

/** All eight benchmark names in the paper's plotting order. */
const std::vector<std::string> &workload_names();

} // namespace approxnoc

#endif // APPROXNOC_WORKLOADS_WORKLOAD_H
