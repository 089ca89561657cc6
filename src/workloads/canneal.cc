/**
 * @file
 * Simulated-annealing placement of netlist elements on a grid. The
 * element coordinate arrays are the approximable Int32 regions (the
 * netlist topology stays precise); the kernel anneals with a
 * deterministic schedule and reports the final total wirelength.
 */
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "workloads/kernels.h"

namespace approxnoc {

WorkloadResult
CannealWorkload::run(ApproxCacheSystem &mem)
{
    const std::size_t n = std::size_t{1024} * scale_;
    const std::size_t fanin = 4;
    const unsigned cores = mem.config().n_cores;
    Rng rng(seed_);

    std::size_t locx = mem.alloc(n, "loc_x");
    std::size_t locy = mem.alloc(n, "loc_y");
    std::size_t nets = mem.alloc(n * fanin, "nets");
    mem.annotate(locx, n, DataType::Int32);
    mem.annotate(locy, n, DataType::Int32);
    // The netlist itself is structural and must stay precise.

    const std::int32_t grid_w = 256, grid_h = 256;
    for (std::size_t i = 0; i < n; ++i) {
        mem.initInt(locx + i, static_cast<std::int32_t>(rng.next(grid_w)));
        mem.initInt(locy + i, static_cast<std::int32_t>(rng.next(grid_h)));
        for (std::size_t f = 0; f < fanin; ++f) {
            // Real netlists are local: most nets connect to nearby
            // logic, with occasional long wires.
            std::size_t o;
            if (rng.chance(0.85)) {
                o = (i + n + static_cast<std::size_t>(rng.range(-24, 24))) %
                    n;
            } else {
                o = rng.next(n);
            }
            mem.initInt(nets + i * fanin + f,
                        static_cast<std::int32_t>(o));
        }
    }

    // Total wirelength per element, from the precise memory image.
    auto total_cost = [&] {
        double total = 0.0;
        for (std::size_t e = 0; e < n; ++e) {
            std::int32_t ex = mem.peekInt(locx + e);
            std::int32_t ey = mem.peekInt(locy + e);
            for (std::size_t f = 0; f < fanin; ++f) {
                auto o = static_cast<std::size_t>(
                    mem.peekInt(nets + e * fanin + f));
                total += std::abs(ex - mem.peekInt(locx + o)) +
                         std::abs(ey - mem.peekInt(locy + o));
            }
        }
        return total / static_cast<double>(n);
    };
    const double initial_cost = total_cost();

    // Wirelength of element e against its fanin, from core's view.
    auto elem_cost = [&](unsigned core, std::size_t e) {
        std::int64_t c = 0;
        std::int32_t ex = mem.loadInt(core, locx + e);
        std::int32_t ey = mem.loadInt(core, locy + e);
        for (std::size_t f = 0; f < fanin; ++f) {
            auto o = static_cast<std::size_t>(
                mem.loadInt(core, nets + e * fanin + f));
            std::int32_t ox = mem.loadInt(core, locx + o);
            std::int32_t oy = mem.loadInt(core, locy + o);
            c += std::abs(ex - ox) + std::abs(ey - oy);
        }
        return c;
    };

    double temperature = 200.0;
    std::size_t step = 0;
    while (temperature > 0.05) {
        for (std::size_t s = 0; s < n; ++s, ++step) {
            unsigned core = static_cast<unsigned>(step % cores);
            std::size_t a = rng.next(n);
            std::size_t b = rng.next(n);
            if (a == b)
                continue;
            std::int64_t before = elem_cost(core, a) + elem_cost(core, b);
            // Swap locations.
            std::int32_t ax = mem.loadInt(core, locx + a);
            std::int32_t ay = mem.loadInt(core, locy + a);
            std::int32_t bx = mem.loadInt(core, locx + b);
            std::int32_t by = mem.loadInt(core, locy + b);
            mem.storeInt(core, locx + a, bx);
            mem.storeInt(core, locy + a, by);
            mem.storeInt(core, locx + b, ax);
            mem.storeInt(core, locy + b, ay);
            std::int64_t after = elem_cost(core, a) + elem_cost(core, b);
            std::int64_t delta = after - before;
            bool accept =
                delta < 0 ||
                rng.uniform() < std::exp(-static_cast<double>(delta) /
                                         temperature);
            if (!accept) {
                mem.storeInt(core, locx + a, ax);
                mem.storeInt(core, locy + a, ay);
                mem.storeInt(core, locx + b, bx);
                mem.storeInt(core, locy + b, by);
            }
        }
        mem.barrier();
        temperature *= 0.8;
    }

    WorkloadResult res;
    res.output.push_back(total_cost()); // final wirelength (post-flush)
    res.output.push_back(initial_cost);
    res.exec_cycles = mem.executionCycles();
    res.miss_rate = mem.missRate();
    return res;
}

} // namespace approxnoc
