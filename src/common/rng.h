/**
 * @file
 * Deterministic random number generation. Every stochastic component
 * takes an explicit Rng (or a seed) so simulations are reproducible.
 */
#ifndef APPROXNOC_COMMON_RNG_H
#define APPROXNOC_COMMON_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace approxnoc {

/**
 * The 64-bit Mersenne twister, MT19937-64: for every seed it yields
 * std::mt19937_64's stream, bit for bit. The twist is branch-free
 * (the random low bit selects the matrix by a mask, not a jump), so a
 * draw costs the same whatever the bits are.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt19937_64(result_type s = 5489u) { seed(s); }

    void
    seed(result_type s)
    {
        x_[0] = s;
        for (std::size_t i = 1; i < kN; ++i)
            x_[i] = 6364136223846793005ull * (x_[i - 1] ^ (x_[i - 1] >> 62)) +
                    i;
        p_ = kN;
    }

    result_type
    operator()()
    {
        if (p_ >= kN)
            twist();
        result_type z = x_[p_++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71D67FFFEDA60000ull;
        z ^= (z << 37) & 0xFFF7EEE000000000ull;
        return z ^ (z >> 43);
    }

  private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;

    /** One twist step: x_[k] from x_[k], x_[k + 1] and x_[k + kM]. */
    static result_type
    mix(result_type xk, result_type xk1, result_type xkm)
    {
        constexpr result_type kUpper = ~result_type{0} << 31;
        const result_type y = (xk & kUpper) | (xk1 & ~kUpper);
        return xkm ^ (y >> 1) ^ (0xB5026F5AA96619E9ull & (0 - (y & 1)));
    }

    void
    twist()
    {
        for (std::size_t k = 0; k < kN - kM; ++k)
            x_[k] = mix(x_[k], x_[k + 1], x_[k + kM]);
        for (std::size_t k = kN - kM; k < kN - 1; ++k)
            x_[k] = mix(x_[k], x_[k + 1], x_[k + kM - kN]);
        x_[kN - 1] = mix(x_[kN - 1], x_[0], x_[kM - 1]);
        p_ = 0;
    }

    std::array<result_type, kN> x_{};
    std::size_t p_ = kN;
};

/**
 * @p x / 2^64 rounded to double and held below 1: the value
 * std::generate_canonical<double, 53> makes of one 64-bit draw. The
 * two 32-bit halves convert exactly and their sum rounds once, as the
 * direct conversion does, without its branch on the top bit.
 */
inline double
canonical_double(std::uint64_t x)
{
    const double v = static_cast<double>(static_cast<std::uint32_t>(x >> 32)) *
                         0x1p32 +
                     static_cast<double>(static_cast<std::uint32_t>(x));
    const double u = v * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

/**
 * Convenience draws over Mt19937_64. Not thread safe; use one instance
 * per simulated component.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0xA9C0FFEEull) : engine_(seed) {}

    /** Re-seed the generator. */
    void seed(std::uint64_t s) { engine_.seed(s); }

    /** Uniform integer in [0, bound) — bound must be > 0. */
    std::uint64_t
    next(std::uint64_t bound)
    {
        return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /** Uniform double in [0, 1): std::uniform_real_distribution's
     *  value for (0, 1). */
    double uniform() { return canonical_double(engine_()); }

    /** Uniform double in [lo, hi), computed as
     *  std::uniform_real_distribution computes it. */
    double
    uniform(double lo, double hi)
    {
        return uniform() * (hi - lo) + lo;
    }

    /** Normal draw. */
    double
    gaussian(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Bernoulli draw with probability @p p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Raw 64 random bits. */
    std::uint64_t bits() { return engine_(); }

  private:
    Mt19937_64 engine_;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_RNG_H
