/**
 * @file
 * Unit tests for common helpers: time units, piecewise-linear curves and
 * their inversion, the inverse normal CDF / quadrature, and the ring
 * FIFO behind the chip and channel queues.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <random>
#include <vector>

#include "common/fast_div.hh"
#include "common/interp.hh"
#include "common/mathutil.hh"
#include "common/ring_fifo.hh"
#include "common/types.hh"

namespace aero
{
namespace
{

TEST(Types, TickConversions)
{
    EXPECT_EQ(msToTicks(3.5), 3'500'000u);
    EXPECT_DOUBLE_EQ(ticksToMs(3'500'000), 3.5);
    EXPECT_DOUBLE_EQ(ticksToUs(40'000), 40.0);
    EXPECT_EQ(kMs, 1'000'000u);
    EXPECT_EQ(kSec, 1'000'000'000u);
}

TEST(PiecewiseLinear, InterpolatesBetweenKnots)
{
    PiecewiseLinear f({{0.0, 0.0}, {10.0, 100.0}});
    EXPECT_DOUBLE_EQ(f(0.0), 0.0);
    EXPECT_DOUBLE_EQ(f(5.0), 50.0);
    EXPECT_DOUBLE_EQ(f(10.0), 100.0);
}

TEST(PiecewiseLinear, ExtrapolatesLinearly)
{
    PiecewiseLinear f({{0.0, 0.0}, {10.0, 100.0}, {20.0, 150.0}});
    EXPECT_DOUBLE_EQ(f(30.0), 200.0);  // last segment slope = 5
    EXPECT_DOUBLE_EQ(f(-10.0), -100.0);
}

TEST(PiecewiseLinear, MultiSegment)
{
    PiecewiseLinear f({{0.0, 1.0}, {1.0, 2.0}, {2.0, 10.0}});
    EXPECT_DOUBLE_EQ(f(0.5), 1.5);
    EXPECT_DOUBLE_EQ(f(1.5), 6.0);
}

TEST(PiecewiseLinear, InverseRoundTrips)
{
    PiecewiseLinear f({{0.0, 0.0}, {5.0, 20.0}, {10.0, 100.0}});
    for (const double x : {0.5, 2.0, 4.9, 5.1, 7.5, 9.9}) {
        EXPECT_NEAR(f.inverse(f(x)), x, 1e-9) << "x=" << x;
    }
}

TEST(PiecewiseLinear, InverseExtrapolates)
{
    PiecewiseLinear f({{0.0, 0.0}, {10.0, 100.0}});
    EXPECT_NEAR(f.inverse(200.0), 20.0, 1e-9);
}

TEST(PiecewiseLinear, RejectsNonIncreasingX)
{
    EXPECT_DEATH(PiecewiseLinear({{1.0, 0.0}, {1.0, 1.0}}), "increasing");
}

TEST(MathUtil, InverseNormalCdfKnownValues)
{
    EXPECT_NEAR(inverseNormalCdf(0.5), 0.0, 1e-8);
    EXPECT_NEAR(inverseNormalCdf(0.975), 1.959964, 1e-4);
    EXPECT_NEAR(inverseNormalCdf(0.025), -1.959964, 1e-4);
    EXPECT_NEAR(inverseNormalCdf(0.8413447), 1.0, 1e-4);
    EXPECT_NEAR(inverseNormalCdf(0.9986501), 3.0, 1e-3);
}

TEST(MathUtil, QuadratureNodesAreStandardNormal)
{
    const auto zs = normalQuadratureNodes(101);
    double mean = 0.0, var = 0.0;
    for (const double z : zs)
        mean += z;
    mean /= zs.size();
    for (const double z : zs)
        var += (z - mean) * (z - mean);
    var /= zs.size();
    EXPECT_NEAR(mean, 0.0, 1e-6);
    EXPECT_NEAR(var, 1.0, 0.05);
}

class QuadratureSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(QuadratureSweep, LognormalMeanViaQuadrature)
{
    // E[exp(sigma Z - sigma^2/2)] must be ~1 for any node count.
    const int n = GetParam();
    const double sigma = 0.25;
    const auto zs = normalQuadratureNodes(n);
    double sum = 0.0;
    for (const double z : zs)
        sum += std::exp(sigma * z - 0.5 * sigma * sigma);
    EXPECT_NEAR(sum / n, 1.0, 0.01) << "nodes=" << n;
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, QuadratureSweep,
                         ::testing::Values(9, 17, 33, 65, 129));

/** Pop everything, front first. */
std::vector<int>
drain(RingFifo<int> &q)
{
    std::vector<int> out;
    while (!q.empty()) {
        out.push_back(q.front());
        q.pop_front();
    }
    return out;
}

/**
 * A full ring whose front sits `shift` slots into its buffer: fill it
 * with 0, 1, ..., pop `shift`, and push as many again. Holds
 * shift .. shift + capacity - 1 in order.
 */
RingFifo<int>
fullWrappedRing(int shift)
{
    RingFifo<int> q;
    const auto cap = static_cast<int>(q.capacity());
    for (int i = 0; i < cap; ++i)
        q.push_back(i);
    for (int i = 0; i < shift; ++i)
        q.pop_front();
    for (int i = cap; i < cap + shift; ++i)
        q.push_back(i);
    return q;
}

std::vector<int>
iota(int first, int last)
{
    std::vector<int> out;
    for (int i = first; i < last; ++i)
        out.push_back(i);
    return out;
}

TEST(RingFifo, WrapsAroundWithoutGrowing)
{
    RingFifo<int> q = fullWrappedRing(5);
    const auto cap = static_cast<int>(q.capacity());
    ASSERT_GT(cap, 5);
    // The five pushes landed in the slots the pops freed, behind the
    // survivors at the end of the buffer, without growing it.
    EXPECT_EQ(q.size(), q.capacity());
    EXPECT_EQ(q[0], 5);
    EXPECT_EQ(q[q.size() - 1], cap + 4);
    EXPECT_EQ(drain(q), iota(5, cap + 5));
}

TEST(RingFifo, GrowthWhileWrappedKeepsFifoOrder)
{
    RingFifo<int> q = fullWrappedRing(3);
    const auto cap = static_cast<int>(q.capacity());
    // Full and wrapped: the next pushes must unwrap the contents into
    // the doubled buffer in FIFO order.
    for (int i = cap + 3; i < 2 * cap + 4; ++i)
        q.push_back(i);
    EXPECT_EQ(q.capacity(), 4u * static_cast<std::size_t>(cap));
    EXPECT_EQ(drain(q), iota(3, 2 * cap + 4));
}

TEST(RingFifo, RandomizedDifferentialAgainstDeque)
{
    std::mt19937 rng(4242u);
    RingFifo<int> q;
    std::deque<int> ref;
    for (int op = 0; op < 20000; ++op) {
        const unsigned dice = rng() % 10;
        if (dice < 6 || ref.empty()) {
            q.push_back(op);
            ref.push_back(op);
        } else {
            q.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(q.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(q.front(), ref.front());
            const std::size_t i = rng() % ref.size();
            ASSERT_EQ(q[i], ref[i]);
        }
    }
}

TEST(Divider32, MatchesTheHardwareDivide)
{
    // Every divisor shape the FTL meets (1, powers of two, odd and
    // even counts) and the largest, against numerators at both ends of
    // the 32-bit range, at multiples of the divisor and either side of
    // them, and at random.
    std::mt19937 rng(32u);
    std::vector<std::uint32_t> divisors = {1,   2,    3,     5,    7,
                                           64,  384,  1000,  2112, 4096,
                                           65537, 0x7fffffffu, 0xfffffffeu,
                                           0xffffffffu};
    for (int i = 0; i < 64; ++i)
        divisors.push_back(1 + rng() % 0xfffffffeu);
    for (const std::uint32_t d : divisors) {
        SCOPED_TRACE("d = " + std::to_string(d));
        const Divider32 div(d);
        std::vector<std::uint32_t> ns = {0, 1, d - 1, d, 0xffffffffu,
                                         0xfffffffeu, 0x80000000u};
        for (std::uint32_t k = 1; k < 8; ++k) {
            const std::uint64_t m = static_cast<std::uint64_t>(d) * k;
            if (m <= 0xffffffffu) {
                ns.push_back(static_cast<std::uint32_t>(m));
                ns.push_back(static_cast<std::uint32_t>(m - 1));
            }
            if (m + 1 <= 0xffffffffu)
                ns.push_back(static_cast<std::uint32_t>(m + 1));
        }
        for (int i = 0; i < 2000; ++i)
            ns.push_back(static_cast<std::uint32_t>(rng()));
        for (const std::uint32_t n : ns)
            ASSERT_EQ(div.div(n), n / d) << "n = " << n;
    }
}

} // namespace
} // namespace aero
