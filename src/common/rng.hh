/**
 * @file
 * Deterministic random-number generation for reproducible experiments.
 *
 * We ship our own xoshiro256** engine instead of std::mt19937 so results
 * are bit-identical across standard libraries, and our own distribution
 * transforms because libstdc++/libc++ are free to differ in theirs.
 */

#ifndef AERO_COMMON_RNG_HH
#define AERO_COMMON_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"

namespace aero
{

/** SplitMix64: used to seed/expand xoshiro state from one 64-bit seed. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * xoshiro256** 1.0 (Blackman & Vigna), a fast all-purpose generator with
 * a 2^256-1 period; more than enough state for per-block substreams.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion; seed 0 is remapped internally. */
    explicit Rng(std::uint64_t seed = 0x5eedULL)
    {
        SplitMix64 sm(seed ^ 0x9d2c5680cafef00dULL);
        for (auto &w : s)
            w = sm.next();
    }

    /** Raw 64 random bits. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n) without modulo bias (n > 0). */
    std::uint64_t
    below(std::uint64_t n)
    {
        AERO_CHECK(n > 0, "below(0)");
        // Lemire's nearly-divisionless method.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        auto l = static_cast<std::uint64_t>(m);
        if (l < n) {
            std::uint64_t t = (0 - n) % n;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * n;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Standard normal via Box-Muller (uses one cached value). */
    double
    gauss()
    {
        if (haveCached) {
            haveCached = false;
            return cached;
        }
        double u1 = 0.0;
        while (u1 <= 1e-300)
            u1 = uniform();
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        cached = r * std::sin(theta);
        haveCached = true;
        return r * std::cos(theta);
    }

    /** Normal with given mean / standard deviation. */
    double
    gauss(double mean, double sigma)
    {
        return mean + sigma * gauss();
    }

    /**
     * Log-normal multiplicative factor with E[X] = 1 and the given sigma of
     * the underlying normal; the workhorse of process-variation modelling.
     */
    double
    lognormFactor(double sigma)
    {
        return std::exp(gauss(-0.5 * sigma * sigma, sigma));
    }

    /** Exponential with given mean (> 0). */
    double
    expovariate(double mean)
    {
        double u = 0.0;
        while (u <= 1e-300)
            u = uniform();
        return -mean * std::log(u);
    }

    /** Bernoulli trial. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Derive an independent substream (for per-block/per-chip RNGs). */
    Rng
    fork(std::uint64_t salt)
    {
        return Rng(next() ^ (salt * 0x9e3779b97f4a7c15ULL + 0x1234abcdULL));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4] = {};
    double cached = 0.0;
    bool haveCached = false;
};

/**
 * Zipfian integer generator over [0, n) with skew theta in [0, 1).
 * Implements the Gray et al. approximation used by YCSB, which makes the
 * draw O(1) after O(n)-free constant setup (zeta computed incrementally
 * to a fixed precision via the standard two-term approximation).
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(std::uint64_t n, double theta);

    /** Draw one value in [0, n). */
    std::uint64_t draw(Rng &rng) const;

  private:
    static double zetaStatic(std::uint64_t n, double theta);
    /** zetaStatic(n, theta), remembered for the last few (n, theta). */
    static double zetaMemo(std::uint64_t n, double theta);

    std::uint64_t n;
    double theta;
    double alpha;
    double zetan;
    double eta;
    double halfPowTheta;  //!< pow(0.5, theta)
};

inline
ZipfGenerator::ZipfGenerator(std::uint64_t n_, double theta_)
    : n(n_), theta(theta_)
{
    AERO_CHECK(n > 0, "zipf over empty range");
    AERO_CHECK(theta >= 0.0 && theta < 1.0, "zipf theta must be in [0,1)");
    zetan = zetaMemo(n, theta);
    const double zeta2 = zetaStatic(2, theta);
    alpha = 1.0 / (1.0 - theta);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
          (1.0 - zeta2 / zetan);
    halfPowTheta = std::pow(0.5, theta);
}

inline double
ZipfGenerator::zetaMemo(std::uint64_t n, double theta)
{
    // zetaStatic sums up to 100k pow() calls, and every trace of a
    // campaign builds a generator over the same footprint and skew.
    // Per thread, so no lock; n > 0, so an empty slot never matches.
    struct Memo
    {
        std::uint64_t n = 0;
        double theta = 0.0;
        double zeta = 0.0;
    };
    constexpr std::size_t kSlots = 4;
    thread_local std::array<Memo, kSlots> memo{};
    thread_local std::size_t nextSlot = 0;
    for (const Memo &m : memo) {
        if (m.n == n && m.theta == theta)
            return m.zeta;
    }
    const double zeta = zetaStatic(n, theta);
    memo[nextSlot] = Memo{n, theta, zeta};
    nextSlot = (nextSlot + 1) % kSlots;
    return zeta;
}

inline double
ZipfGenerator::zetaStatic(std::uint64_t n, double theta)
{
    // Exact sum up to a cap, then integral approximation for the tail;
    // plenty accurate for workload-locality purposes.
    constexpr std::uint64_t kExactCap = 100000;
    double z = 0.0;
    const std::uint64_t exact_n = n < kExactCap ? n : kExactCap;
    for (std::uint64_t i = 1; i <= exact_n; ++i)
        z += 1.0 / std::pow(static_cast<double>(i), theta);
    if (n > exact_n) {
        // integral of x^-theta from exact_n to n
        const double a = 1.0 - theta;
        z += (std::pow(static_cast<double>(n), a) -
              std::pow(static_cast<double>(exact_n), a)) / a;
    }
    return z;
}

inline std::uint64_t
ZipfGenerator::draw(Rng &rng) const
{
    if (theta == 0.0)
        return rng.below(n);
    const double u = rng.uniform();
    const double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + halfPowTheta)
        return 1;
    const auto v = static_cast<std::uint64_t>(
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
    return v >= n ? n - 1 : v;
}

} // namespace aero

#endif // AERO_COMMON_RNG_HH
