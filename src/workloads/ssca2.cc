/**
 * @file
 * SSCA2 betweenness centrality: an R-MAT small-world graph (the
 * benchmark's own generator family, also behind the SNAP graphs the
 * paper samples) and weight-scaled Brandes' dependency accumulation
 * over every source. Graph structure (CSR arrays) stays precise; the
 * floating-point pair-wise dependencies (delta), the edge weights (the
 * "weights in graphs" data segment the paper calls out) and the
 * centrality scores are approximable (Sec. 5.1).
 */
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "workloads/kernels.h"

namespace approxnoc {

WorkloadResult
Ssca2Workload::run(ApproxCacheSystem &mem)
{
    const std::size_t n = std::size_t{256} * scale_;
    const std::size_t m_target = n * 8;
    const unsigned cores = mem.config().n_cores;
    Rng rng(seed_);

    // R-MAT edge generation (a=0.57, b=0.19, c=0.19, d=0.05).
    std::vector<std::vector<std::size_t>> adj_list(n);
    unsigned levels = 0;
    while ((1ull << levels) < n)
        ++levels;
    for (std::size_t e = 0; e < m_target; ++e) {
        std::size_t u = 0, v = 0;
        for (unsigned l = 0; l < levels; ++l) {
            double r = rng.uniform();
            unsigned quad = r < 0.57 ? 0 : r < 0.76 ? 1 : r < 0.95 ? 2 : 3;
            u = (u << 1) | (quad >> 1);
            v = (v << 1) | (quad & 1);
        }
        if (u == v || u >= n || v >= n)
            continue;
        adj_list[u].push_back(v);
        adj_list[v].push_back(u);
    }

    // CSR arrays in simulated memory (precise).
    std::size_t m_total = 0;
    for (const auto &a : adj_list)
        m_total += a.size();
    std::size_t xadj = mem.alloc(n + 1, "xadj");
    std::size_t adjn = mem.alloc(m_total, "adj");
    std::size_t wgt = mem.alloc(m_total, "weights");
    std::size_t bc = mem.alloc(n, "bc");
    mem.annotate(wgt, m_total, DataType::Float32);
    // Per-core scratch: sigma / dist (precise), delta (approximable).
    std::size_t sigma = mem.alloc(cores * n, "sigma");
    std::size_t dist = mem.alloc(cores * n, "dist");
    std::size_t delta = mem.alloc(cores * n, "delta");
    std::size_t bc_part = mem.alloc(cores * n, "bc_partial");
    mem.annotate(delta, cores * n, DataType::Float32);
    mem.annotate(bc, n, DataType::Float32);
    mem.annotate(bc_part, cores * n, DataType::Float32);

    std::size_t off = 0;
    for (std::size_t u = 0; u < n; ++u) {
        mem.initInt(xadj + u, static_cast<std::int32_t>(off));
        for (std::size_t v : adj_list[u]) {
            // Quantized edge weights: the "weights in graphs" data
            // segment the paper singles out as approximable.
            double w = 0.25 * static_cast<double>(1 + rng.next(16));
            mem.initFloat(wgt + off, static_cast<float>(w));
            mem.initInt(adjn + off++, static_cast<std::int32_t>(v));
        }
    }
    mem.initInt(xadj + n, static_cast<std::int32_t>(off));
    for (std::size_t i = 0; i < cores * n; ++i)
        mem.initFloat(bc_part + i, 0.0f);
    for (std::size_t v = 0; v < n; ++v)
        mem.initFloat(bc + v, 0.0f);

    // Brandes: sources partitioned across cores.
    for (std::size_t s = 0; s < n; ++s) {
        unsigned core = static_cast<unsigned>(s % cores);
        std::size_t base = static_cast<std::size_t>(core) * n;

        for (std::size_t v = 0; v < n; ++v) {
            mem.storeInt(core, sigma + base + v, 0);
            mem.storeInt(core, dist + base + v, -1);
            mem.storeFloat(core, delta + base + v, 0.0f);
        }
        mem.storeInt(core, sigma + base + s, 1);
        mem.storeInt(core, dist + base + s, 0);

        // BFS (the traversal stack lives in core-local storage).
        std::vector<std::size_t> order;
        std::vector<std::size_t> queue = {s};
        order.reserve(n);
        while (!queue.empty()) {
            std::vector<std::size_t> next;
            for (std::size_t u : queue) {
                order.push_back(u);
                auto beg = static_cast<std::size_t>(
                    mem.loadInt(core, xadj + u));
                auto end = static_cast<std::size_t>(
                    mem.loadInt(core, xadj + u + 1));
                std::int32_t du = mem.loadInt(core, dist + base + u);
                std::int32_t su = mem.loadInt(core, sigma + base + u);
                for (std::size_t p = beg; p < end; ++p) {
                    auto v = static_cast<std::size_t>(
                        mem.loadInt(core, adjn + p));
                    std::int32_t dv = mem.loadInt(core, dist + base + v);
                    if (dv < 0) {
                        mem.storeInt(core, dist + base + v, du + 1);
                        next.push_back(v);
                        dv = du + 1;
                    }
                    if (dv == du + 1) {
                        mem.storeInt(core, sigma + base + v,
                                     mem.loadInt(core, sigma + base + v) +
                                         su);
                    }
                }
            }
            queue = std::move(next);
        }

        // Dependency accumulation in reverse BFS order.
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            std::size_t u = *it;
            auto beg = static_cast<std::size_t>(mem.loadInt(core, xadj + u));
            auto end =
                static_cast<std::size_t>(mem.loadInt(core, xadj + u + 1));
            std::int32_t du = mem.loadInt(core, dist + base + u);
            double su = mem.loadInt(core, sigma + base + u);
            double del_u = mem.loadFloat(core, delta + base + u);
            for (std::size_t p = beg; p < end; ++p) {
                auto v =
                    static_cast<std::size_t>(mem.loadInt(core, adjn + p));
                if (mem.loadInt(core, dist + base + v) == du + 1) {
                    double sv = mem.loadInt(core, sigma + base + v);
                    if (sv > 0) {
                        double dv = mem.loadFloat(core, delta + base + v);
                        double w = mem.loadFloat(core, wgt + p);
                        del_u += w * (su / sv) * (1.0 + dv);
                    }
                }
            }
            mem.storeFloat(core, delta + base + u,
                           static_cast<float>(del_u));
            if (u != s) {
                float cur = mem.loadFloat(core, bc_part + base + u);
                mem.storeFloat(core, bc_part + base + u,
                               static_cast<float>(cur + del_u));
            }
        }
    }
    mem.barrier();

    // Reduce per-core partials (core 0).
    for (std::size_t v = 0; v < n; ++v) {
        double sum = 0.0;
        for (unsigned c = 0; c < cores; ++c)
            sum += mem.loadFloat(0, bc_part + static_cast<std::size_t>(c) * n + v);
        mem.storeFloat(0, bc + v, static_cast<float>(sum));
    }
    mem.barrier();

    WorkloadResult res;
    res.output.reserve(n);
    for (std::size_t v = 0; v < n; ++v)
        res.output.push_back(mem.peekFloat(bc + v));
    res.exec_cycles = mem.executionCycles();
    res.miss_rate = mem.missRate();
    return res;
}

} // namespace approxnoc
