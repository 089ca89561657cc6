/**
 * @file
 * 2D smoothed-particle-hydrodynamics mini-simulation. Particle
 * positions and velocities are approximable Float32; the kernel runs
 * a few density/force/integrate timesteps with all-pairs interactions
 * inside a smoothing radius.
 */
#include <cmath>

#include "common/rng.h"
#include "workloads/kernels.h"

namespace approxnoc {

WorkloadResult
FluidanimateWorkload::run(ApproxCacheSystem &mem)
{
    const std::size_t n = std::size_t{256} * scale_;
    const unsigned steps = 4;
    const unsigned cores = mem.config().n_cores;
    Rng rng(seed_);

    std::size_t px = mem.alloc(n, "pos_x");
    std::size_t py = mem.alloc(n, "pos_y");
    std::size_t vx = mem.alloc(n, "vel_x");
    std::size_t vy = mem.alloc(n, "vel_y");
    std::size_t rho = mem.alloc(n, "density");
    for (std::size_t off : {px, py, vx, vy, rho})
        mem.annotate(off, n, DataType::Float32);

    const double box = 10.0, h = 1.2, dt = 0.02;
    for (std::size_t i = 0; i < n; ++i) {
        mem.initFloat(px + i, static_cast<float>(rng.uniform(1.0, box - 1.0)));
        mem.initFloat(py + i, static_cast<float>(rng.uniform(1.0, box - 1.0)));
        mem.initFloat(vx + i, static_cast<float>(rng.gaussian(0.0, 0.3)));
        mem.initFloat(vy + i, static_cast<float>(rng.gaussian(0.0, 0.3)));
        mem.initFloat(rho + i, 0.0f);
    }

    for (unsigned s = 0; s < steps; ++s) {
        // Density pass.
        for (std::size_t i = 0; i < n; ++i) {
            unsigned core = static_cast<unsigned>(i % cores);
            double xi = mem.loadFloat(core, px + i);
            double yi = mem.loadFloat(core, py + i);
            double d = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                double dx = xi - mem.loadFloat(core, px + j);
                double dy = yi - mem.loadFloat(core, py + j);
                double r2 = dx * dx + dy * dy;
                if (r2 < h * h) {
                    double q = 1.0 - std::sqrt(r2) / h;
                    d += q * q * q;
                }
            }
            mem.storeFloat(core, rho + i, static_cast<float>(d));
        }
        mem.barrier();

        // Force + integrate pass.
        for (std::size_t i = 0; i < n; ++i) {
            unsigned core = static_cast<unsigned>(i % cores);
            double xi = mem.loadFloat(core, px + i);
            double yi = mem.loadFloat(core, py + i);
            double di = mem.loadFloat(core, rho + i);
            double fx = 0.0, fy = -0.5; // gravity
            for (std::size_t j = 0; j < n; ++j) {
                if (j == i)
                    continue;
                double dx = xi - mem.loadFloat(core, px + j);
                double dy = yi - mem.loadFloat(core, py + j);
                double r2 = dx * dx + dy * dy;
                if (r2 < h * h && r2 > 1e-9) {
                    double r = std::sqrt(r2);
                    double dj = mem.loadFloat(core, rho + j);
                    double press = 0.15 * (di + dj);
                    fx += press * (dx / r) * (1.0 - r / h);
                    fy += press * (dy / r) * (1.0 - r / h);
                }
            }
            double nvx = mem.loadFloat(core, vx + i) + dt * fx;
            double nvy = mem.loadFloat(core, vy + i) + dt * fy;
            double nx = xi + dt * nvx;
            double ny = yi + dt * nvy;
            // Reflecting walls.
            if (nx < 0.0) { nx = -nx; nvx = -nvx; }
            if (nx > box) { nx = 2 * box - nx; nvx = -nvx; }
            if (ny < 0.0) { ny = -ny; nvy = -nvy; }
            if (ny > box) { ny = 2 * box - ny; nvy = -nvy; }
            mem.storeFloat(core, vx + i, static_cast<float>(nvx));
            mem.storeFloat(core, vy + i, static_cast<float>(nvy));
            mem.storeFloat(core, px + i, static_cast<float>(nx));
            mem.storeFloat(core, py + i, static_cast<float>(ny));
        }
        mem.barrier();
    }

    WorkloadResult res;
    res.output.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        res.output.push_back(mem.peekFloat(px + i));
        res.output.push_back(mem.peekFloat(py + i));
    }
    res.exec_cycles = mem.executionCycles();
    res.miss_rate = mem.missRate();
    return res;
}

} // namespace approxnoc
