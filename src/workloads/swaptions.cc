/**
 * @file
 * Monte-Carlo swaption pricing. The real PARSEC benchmark simulates
 * HJM forward-rate paths; this substitute prices payer swaptions under
 * a one-factor mean-reverting short-rate model driven by a precomputed
 * table of Gaussian shocks. The shock table and the price outputs are
 * the approximable float regions — they dominate the data traffic just
 * as the HJM path state does in the original.
 */
#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "workloads/kernels.h"

namespace approxnoc {

WorkloadResult
SwaptionsWorkload::run(ApproxCacheSystem &mem)
{
    const std::size_t n_swaptions = std::size_t{16} * scale_;
    const std::size_t n_paths = 128;
    const std::size_t n_steps = 8;
    const unsigned cores = mem.config().n_cores;
    Rng rng(seed_);

    const std::size_t shocks_n = n_swaptions * n_paths * n_steps;
    std::size_t shocks = mem.alloc(shocks_n, "shocks");
    std::size_t params = mem.alloc(n_swaptions * 4, "params");
    std::size_t out = mem.alloc(n_swaptions, "prices");
    mem.annotate(shocks, shocks_n, DataType::Float32);
    mem.annotate(params, n_swaptions * 4, DataType::Float32);
    mem.annotate(out, n_swaptions, DataType::Float32);

    // Quantized Gaussian shocks (as a table-driven RNG would produce):
    // discrete values repeat across paths, giving the value locality
    // real HJM path state exhibits. 1/256 steps keep mantissas short
    // but not so short that everything compresses exactly.
    for (std::size_t i = 0; i < shocks_n; ++i) {
        double z = rng.gaussian(0.0, 1.0);
        mem.initFloat(shocks + i,
                      static_cast<float>(std::round(z * 256.0) / 256.0));
    }
    for (std::size_t s = 0; s < n_swaptions; ++s) {
        mem.initFloat(params + s * 4 + 0,
                      static_cast<float>(rng.uniform(0.02, 0.06))); // r0
        mem.initFloat(params + s * 4 + 1,
                      static_cast<float>(rng.uniform(0.02, 0.06))); // strike
        mem.initFloat(params + s * 4 + 2,
                      static_cast<float>(rng.uniform(0.1, 0.5))); // kappa
        mem.initFloat(params + s * 4 + 3,
                      static_cast<float>(rng.uniform(0.005, 0.02))); // sigma
    }

    const double dt = 0.25;
    for (std::size_t s = 0; s < n_swaptions; ++s) {
        unsigned core = static_cast<unsigned>(s % cores);
        double r0 = mem.loadFloat(core, params + s * 4 + 0);
        double strike = mem.loadFloat(core, params + s * 4 + 1);
        double kappa = mem.loadFloat(core, params + s * 4 + 2);
        double sigma = mem.loadFloat(core, params + s * 4 + 3);
        const double theta = 0.045;

        double sum = 0.0;
        for (std::size_t p = 0; p < n_paths; ++p) {
            double r = r0;
            double discount = 1.0;
            for (std::size_t t = 0; t < n_steps; ++t) {
                double z = mem.loadFloat(
                    core, shocks + (s * n_paths + p) * n_steps + t);
                r += kappa * (theta - r) * dt +
                     sigma * std::sqrt(dt) * z;
                discount *= std::exp(-std::max(r, 0.0) * dt);
            }
            sum += discount * std::max(r - strike, 0.0);
        }
        mem.storeFloat(core, out + s,
                       static_cast<float>(sum / static_cast<double>(n_paths)));
    }
    mem.barrier();

    WorkloadResult res;
    for (std::size_t s = 0; s < n_swaptions; ++s)
        res.output.push_back(mem.peekFloat(out + s));
    res.exec_cycles = mem.executionCycles();
    res.miss_rate = mem.missRate();
    return res;
}

} // namespace approxnoc
