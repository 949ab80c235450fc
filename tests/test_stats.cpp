/**
 * @file
 * Unit tests for the statistics substrate: exact percentiles.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "stats/percentile.hh"

namespace aero
{
namespace
{

TEST(Percentile, EmptyTrackerIsZero)
{
    PercentileTracker t;
    EXPECT_EQ(t.percentile(0.5), 0u);
    EXPECT_EQ(t.count(), 0u);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(Percentile, NearestRankSemantics)
{
    PercentileTracker t;
    for (std::uint64_t v = 1; v <= 100; ++v)
        t.add(v);
    EXPECT_EQ(t.percentile(0.50), 50u);
    EXPECT_EQ(t.percentile(0.99), 99u);
    EXPECT_EQ(t.percentile(1.0), 100u);
    EXPECT_EQ(t.percentile(0.0), 1u);
    EXPECT_EQ(t.min(), 1u);
    EXPECT_EQ(t.max(), 100u);
    EXPECT_DOUBLE_EQ(t.mean(), 50.5);
}

TEST(Percentile, ExtremeTailEqualsMaxForSmallSamples)
{
    PercentileTracker t;
    for (std::uint64_t v = 0; v < 1000; ++v)
        t.add(v);
    // 99.9999th percentile of 1000 samples = last sample.
    EXPECT_EQ(t.percentile(0.999999), 999u);
}

TEST(Percentile, InterleavedAddAndQuery)
{
    PercentileTracker t;
    t.add(5);
    EXPECT_EQ(t.percentile(0.5), 5u);
    t.add(1);
    t.add(9);
    EXPECT_EQ(t.percentile(0.5), 5u);
    EXPECT_EQ(t.max(), 9u);
}

class PercentileRandomSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PercentileRandomSweep, MatchesSortedReference)
{
    Rng rng(GetParam());
    PercentileTracker t;
    std::vector<std::uint64_t> ref;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.below(1'000'000);
        t.add(v);
        ref.push_back(v);
    }
    std::sort(ref.begin(), ref.end());
    for (const double p : {0.1, 0.5, 0.9, 0.99, 0.999}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(p * ref.size()));
        EXPECT_EQ(t.percentile(p), ref[rank - 1]) << "p=" << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileRandomSweep,
                         ::testing::Values(3, 17, 99));

} // namespace
} // namespace aero
