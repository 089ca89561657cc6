/**
 * @file
 * Lloyd-style k-median clustering over a synthetic point stream. The
 * point coordinates and center coordinates are approximable Float32;
 * assignments are recomputed from (possibly approximated) coordinates
 * each iteration, which is exactly how approximation shifts centers in
 * the paper's discussion of streamcluster's output error.
 */
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "workloads/kernels.h"

namespace approxnoc {

WorkloadResult
StreamclusterWorkload::run(ApproxCacheSystem &mem)
{
    const std::size_t n = std::size_t{1024} * scale_;
    const std::size_t dim = 8;
    const std::size_t k = 8;
    const unsigned iters = 4;
    const unsigned cores = mem.config().n_cores;
    Rng rng(seed_);

    std::size_t pts = mem.alloc(n * dim, "points");
    std::size_t ctr = mem.alloc(k * dim, "centers");
    std::size_t asn = mem.alloc(n, "assignment");
    mem.annotate(pts, n * dim, DataType::Float32);
    mem.annotate(ctr, k * dim, DataType::Float32);

    // Gaussian blobs around k true centers.
    std::vector<std::vector<double>> true_ctr(k, std::vector<double>(dim));
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t d = 0; d < dim; ++d)
            true_ctr[c][d] = rng.uniform(-50, 50);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t c = rng.next(k);
        for (std::size_t d = 0; d < dim; ++d) {
            // Sensor-style quantization (0.25 steps): real streaming
            // point data repeats coordinate values heavily.
            double v = true_ctr[c][d] + rng.gaussian(0.0, 4.0);
            mem.initFloat(pts + i * dim + d,
                          static_cast<float>(std::round(v * 4.0) / 4.0));
        }
    }
    // Initial centers: the first k points.
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t d = 0; d < dim; ++d)
            mem.initFloat(ctr + c * dim + d,
                          mem.peekFloat(pts + c * dim + d));

    double cost = 0.0;
    for (unsigned it = 0; it < iters; ++it) {
        // Assign phase (parallel over points).
        cost = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            unsigned core = static_cast<unsigned>(i % cores);
            double best = 0.0;
            std::size_t best_c = 0;
            for (std::size_t c = 0; c < k; ++c) {
                double d2 = 0.0;
                for (std::size_t d = 0; d < dim; ++d) {
                    double diff = mem.loadFloat(core, pts + i * dim + d) -
                                  mem.loadFloat(core, ctr + c * dim + d);
                    d2 += diff * diff;
                }
                if (c == 0 || d2 < best) {
                    best = d2;
                    best_c = c;
                }
            }
            mem.storeInt(core, asn + i, static_cast<std::int32_t>(best_c));
            cost += std::sqrt(best);
        }
        mem.barrier();

        // Update phase (core 0 gathers; the paper's kernel does a
        // similar serial consolidation between parallel passes).
        std::vector<std::vector<double>> sum(k, std::vector<double>(dim, 0));
        std::vector<std::size_t> cnt(k, 0);
        for (std::size_t i = 0; i < n; ++i) {
            auto c = static_cast<std::size_t>(mem.loadInt(0, asn + i));
            if (c >= k)
                c = 0; // safety under approximation (should not happen)
            ++cnt[c];
            for (std::size_t d = 0; d < dim; ++d)
                sum[c][d] += mem.loadFloat(0, pts + i * dim + d);
        }
        for (std::size_t c = 0; c < k; ++c)
            if (cnt[c] > 0)
                for (std::size_t d = 0; d < dim; ++d)
                    mem.storeFloat(0, ctr + c * dim + d,
                                   static_cast<float>(
                                       sum[c][d] /
                                       static_cast<double>(cnt[c])));
        mem.barrier();
    }

    WorkloadResult res;
    res.output.push_back(cost / static_cast<double>(n));
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t d = 0; d < dim; ++d)
            res.output.push_back(mem.peekFloat(ctr + c * dim + d));
    res.exec_cycles = mem.executionCycles();
    res.miss_rate = mem.missRate();
    return res;
}

double
StreamclusterWorkload::outputError(const WorkloadResult &precise,
                                   const WorkloadResult &approx) const
{
    // Clustering quality: relative cost difference plus the mean
    // center displacement normalized by the data spread (centers can
    // swap labels, so match each precise center to its nearest).
    double cost_err =
        precise.output[0] != 0.0
            ? std::min(1.0, std::fabs(approx.output[0] - precise.output[0]) /
                                precise.output[0])
            : 0.0;

    const std::size_t dim = 8, k = 8;
    double disp = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
        double best = -1.0;
        for (std::size_t c2 = 0; c2 < k; ++c2) {
            double d2 = 0.0;
            for (std::size_t d = 0; d < dim; ++d) {
                double diff = precise.output[1 + c * dim + d] -
                              approx.output[1 + c2 * dim + d];
                d2 += diff * diff;
            }
            if (best < 0 || d2 < best)
                best = d2;
        }
        disp += std::sqrt(best);
    }
    disp /= static_cast<double>(k) * 100.0; // spread of the data is ~100
    return std::min(1.0, 0.5 * cost_err + 0.5 * disp);
}

} // namespace approxnoc
