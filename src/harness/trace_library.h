/**
 * @file
 * Communication-trace cache. Traces are generated once per benchmark
 * by running the kernel through the cache model with a precise codec
 * and a trace sink (the paper's gem5 trace-collection step), then
 * shared read-only by every concurrently replaying point.
 */
#ifndef APPROXNOC_HARNESS_TRACE_LIBRARY_H
#define APPROXNOC_HARNESS_TRACE_LIBRARY_H

#include <map>
#include <string>
#include <vector>

#include "traffic/trace.h"

namespace approxnoc::harness {

class ExperimentRunner;

/**
 * Per-benchmark trace store, every trace generated at one kernel scale
 * and seed. prefetch() is its only writer and runs before any lane
 * reads, so get() takes no lock.
 */
class TraceLibrary
{
  public:
    explicit TraceLibrary(unsigned scale = 1, std::uint64_t seed = 12345)
        : scale_(scale), seed_(seed)
    {}

    /**
     * The trace of @p benchmark; fatal unless prefetch() generated it.
     * The reference stays valid for the library's lifetime.
     */
    const CommTrace &get(const std::string &benchmark) const;

    /**
     * Generate those of @p benchmarks the library does not hold yet,
     * in parallel on @p runner's lanes. Not to be called while a lane
     * reads the library.
     */
    void prefetch(const std::vector<std::string> &benchmarks,
                  ExperimentRunner &runner);

    /** Natural offered load in data-flits/cycle/node of the first
     *  @p records records of @p t (default: all of them). */
    static double naturalLoad(const CommTrace &t, unsigned n_nodes,
                              std::size_t records = CommTrace::kWholeTrace);

  private:
    unsigned scale_;
    std::uint64_t seed_;
    std::map<std::string, CommTrace> traces_;
};

} // namespace approxnoc::harness

#endif // APPROXNOC_HARNESS_TRACE_LIBRARY_H
