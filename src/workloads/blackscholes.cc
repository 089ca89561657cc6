/**
 * @file
 * Black-Scholes European option pricing over a portfolio of synthetic
 * options. All five input arrays and the price output array are
 * approximable Float32 regions; the option-type array is precise.
 */
#include <array>
#include <cmath>

#include "common/rng.h"
#include "workloads/kernels.h"

namespace approxnoc {

namespace {

/** Cumulative normal distribution (as in the PARSEC kernel). */
double
cndf(double x)
{
    return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0)));
}

} // namespace

WorkloadResult
BlackscholesWorkload::run(ApproxCacheSystem &mem)
{
    const std::size_t n = std::size_t{4096} * scale_;
    const unsigned cores = mem.config().n_cores;
    Rng rng(seed_);

    std::size_t sptprice = mem.alloc(n, "sptprice");
    std::size_t strike = mem.alloc(n, "strike");
    std::size_t rate = mem.alloc(n, "rate");
    std::size_t vol = mem.alloc(n, "volatility");
    std::size_t otime = mem.alloc(n, "otime");
    std::size_t otype = mem.alloc(n, "otype");
    std::size_t prices = mem.alloc(n, "prices");

    for (std::size_t off : {sptprice, strike, rate, vol, otime, prices})
        mem.annotate(off, n, DataType::Float32);
    // Option type stays precise: flipping call/put is not noise.

    // PARSEC's blackscholes input replicates a small option template
    // to reach simlarge size, so the real data stream is dominated by
    // exact repeats plus near values — reproduce that structure.
    const std::size_t n_template = 64;
    std::vector<std::array<float, 5>> tmpl(n_template);
    for (auto &o : tmpl) {
        o[0] = static_cast<float>(rng.uniform(20, 120));
        o[1] = static_cast<float>(rng.uniform(20, 120));
        o[2] = static_cast<float>(rng.uniform(0.01, 0.08));
        o[3] = static_cast<float>(rng.uniform(0.10, 0.60));
        o[4] = static_cast<float>(rng.uniform(0.25, 2.0));
    }
    for (std::size_t i = 0; i < n; ++i) {
        // Zipf-like template popularity: a handful of option profiles
        // dominate, as value distributions in real inputs do.
        double u = rng.uniform();
        auto ti = static_cast<std::size_t>(
            static_cast<double>(n_template) * u * u * u);
        const auto &o = tmpl[std::min(ti, n_template - 1)];
        float j = rng.chance(0.5)
                      ? 1.0f
                      : static_cast<float>(1.0 + rng.uniform(-0.03, 0.03));
        mem.initFloat(sptprice + i, o[0] * j);
        mem.initFloat(strike + i, o[1] * j);
        mem.initFloat(rate + i, o[2] * j);
        mem.initFloat(vol + i, o[3] * j);
        mem.initFloat(otime + i, o[4] * j);
        mem.initInt(otype + i, rng.chance(0.5) ? 1 : 0);
    }

    for (std::size_t i = 0; i < n; ++i) {
        unsigned core = static_cast<unsigned>(i % cores);
        double s = mem.loadFloat(core, sptprice + i);
        double k = mem.loadFloat(core, strike + i);
        double r = mem.loadFloat(core, rate + i);
        double v = mem.loadFloat(core, vol + i);
        double t = mem.loadFloat(core, otime + i);
        bool call = mem.loadInt(core, otype + i) != 0;

        double sqrt_t = std::sqrt(t);
        double d1 = (std::log(s / k) + (r + v * v / 2.0) * t) / (v * sqrt_t);
        double d2 = d1 - v * sqrt_t;
        double price;
        if (call)
            price = s * cndf(d1) - k * std::exp(-r * t) * cndf(d2);
        else
            price = k * std::exp(-r * t) * cndf(-d2) - s * cndf(-d1);
        mem.storeFloat(core, prices + i, static_cast<float>(price));
    }
    mem.barrier();

    WorkloadResult res;
    res.output.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        res.output.push_back(mem.peekFloat(prices + i));
    res.exec_cycles = mem.executionCycles();
    res.miss_rate = mem.missRate();
    return res;
}

} // namespace approxnoc
