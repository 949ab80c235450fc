/**
 * @file
 * Drive-topology battery: misconfigured drives die in
 * SsdConfig::validate() with exact diagnostics, queued channel
 * arbitration conserves every request and keeps its grant accounting
 * consistent on power-of-two and other geometries, and a sweep over the
 * reclamation axes is bit-identical at 1 and N worker threads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "exp/report.hh"
#include "exp/sweep.hh"
#include "ssd/mapping.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace aero
{
namespace
{

// ---------------------------------------------------------------------------
// Misconfiguration death tests: exact diagnostics, not just "it died".
// ---------------------------------------------------------------------------

TEST(TopologyDeathTest, ZeroChannelsDies)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.channels = 0;
    EXPECT_DEATH(cfg.validate(),
                 "geometry: channel count must be positive, got 0");
}

TEST(TopologyDeathTest, ZeroDiesPerChannelDies)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.chipsPerChannel = 0;
    EXPECT_DEATH(cfg.validate(),
                 "geometry: dies per channel must be positive, got 0");
}

TEST(TopologyDeathTest, NegativePlaneCountDies)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.geometry.planes = -1;
    EXPECT_DEATH(cfg.validate(),
                 "geometry: plane count must be positive, got -1");
}

TEST(TopologyDeathTest, PlaneCountBeyondDieLimitDies)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.geometry.planes = 9;
    EXPECT_DEATH(cfg.validate(),
                 "geometry: plane count 9 exceeds the per-die limit of 8");
}

TEST(TopologyDeathTest, ZeroBlocksPerPlaneDies)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.geometry.blocksPerPlane = 0;
    EXPECT_DEATH(cfg.validate(),
                 "geometry: blocks per plane must be positive, got 0");
}

TEST(TopologyDeathTest, ZeroPagesPerBlockDies)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.geometry.pagesPerBlock = 0;
    EXPECT_DEATH(cfg.validate(),
                 "geometry: pages per block must be positive, got 0");
}

SsdConfig
drive(int channels, int dies, int planes, int blocks, int pages)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.channels = channels;
    cfg.chipsPerChannel = dies;
    cfg.geometry = ChipGeometry{planes, blocks, pages};
    return cfg;
}

TEST(TopologyDeathTest, PageCountMustFit32BitPageNumbers)
{
    // validate() only multiplies: no table is allocated at any size.
    // The largest legal drive has 2^32 - 2 = 2 x (2^31 - 1) pages.
    const SsdConfig largest = drive(1, 1, 2, 1, 2147483647);
    ASSERT_EQ(largest.physicalPages(), PageMapping::kNoEntry - 1ULL);
    largest.validate();  // must not die

    // One page more: 2^32 - 1 = 3 x 5 x (17 x 257) x 65537, a page count
    // equal to the 32-bit sentinel.
    const SsdConfig over = drive(3, 5, 1, 17 * 257, 65537);
    ASSERT_EQ(over.physicalPages(), largest.physicalPages() + 1);
    EXPECT_DEATH(over.validate(),
                 "geometry: 4294967295 physical pages do not fit 32-bit "
                 "page numbers; a drive must have fewer than 4294967295");

    // A product past 2^64 saturates rather than wrapping under the limit.
    const int big = std::numeric_limits<int>::max();
    EXPECT_DEATH(drive(big, big, 8, big, big).validate(),
                 "geometry: 18446744073709551615 physical pages do not "
                 "fit 32-bit");
}

// Conditioning fractions are checked where the geometry is: before any
// table is sized, with the field and the value in the message.

SsdConfig
tinyWithFractions(double prefill, double warmup)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.prefillFraction = prefill;
    cfg.warmupOverwriteFraction = warmup;
    return cfg;
}

TEST(ConditioningDeathTest, PrefillFractionAboveOneDies)
{
    EXPECT_DEATH(Ssd(tinyWithFractions(1.5, 0.3)),
                 "conditioning: prefillFraction must be in \\[0, 1\\], "
                 "got 1.5");
}

TEST(ConditioningDeathTest, NegativePrefillFractionDies)
{
    EXPECT_DEATH(Ssd(tinyWithFractions(-0.2, 0.3)),
                 "conditioning: prefillFraction must be in \\[0, 1\\], "
                 "got -0.2");
}

TEST(ConditioningDeathTest, NanPrefillFractionDies)
{
    EXPECT_DEATH(
        Ssd(tinyWithFractions(std::numeric_limits<double>::quiet_NaN(),
                              0.3)),
        "conditioning: prefillFraction must be in \\[0, 1\\], got nan");
}

TEST(ConditioningDeathTest, NegativeWarmupOverwriteFractionDies)
{
    EXPECT_DEATH(Ssd(tinyWithFractions(1.0, -0.5)),
                 "conditioning: warmupOverwriteFraction must be finite "
                 "and non-negative, got -0.5");
}

TEST(ConditioningDeathTest, NanWarmupOverwriteFractionDies)
{
    EXPECT_DEATH(
        Ssd(tinyWithFractions(1.0,
                              std::numeric_limits<double>::quiet_NaN())),
        "conditioning: warmupOverwriteFraction must be finite and "
        "non-negative, got nan");
}

TEST(ConditioningDeathTest, InfiniteWarmupOverwriteFractionDies)
{
    EXPECT_DEATH(
        Ssd(tinyWithFractions(1.0,
                              std::numeric_limits<double>::infinity())),
        "conditioning: warmupOverwriteFraction must be finite and "
        "non-negative, got inf");
}

TEST(Conditioning, FractionsAtTheirBoundsAreAccepted)
{
    Ssd empty(tinyWithFractions(0.0, 0.0));
    EXPECT_EQ(empty.ftl().pageMapping().mappedCount(), 0u);
    Ssd full(tinyWithFractions(1.0, 0.0));
    EXPECT_EQ(full.ftl().pageMapping().mappedCount(),
              full.config().logicalPages());
}

// ---------------------------------------------------------------------------
// Queued-arbitration conservation: an end-to-end run under the
// event-driven channel model completes every request, does real GC, and
// keeps the grant/busy accounting consistent with simulated time.
// ---------------------------------------------------------------------------

TEST(TopologyQueued, ConservesRequestsAndAccounting)
{
    // Queued arbitration runs any page count: tiny's 32 pages per block
    // and 33, which is not a power of two.
    for (const int pages : {32, 33}) {
        SCOPED_TRACE(testing::Message() << pages << " pages per block");
        SsdConfig cfg = SsdConfig::tiny();
        cfg.geometry.pagesPerBlock = pages;
        cfg.arbitration = Arbitration::Queued;
        cfg.seed = 99;
        Ssd ssd(cfg);

        SyntheticConfig wc;
        wc.spec = workloadByName("ali.A");  // write-heavy: forces GC
        wc.footprintPages = ssd.config().logicalPages();
        wc.numRequests = 6000;
        wc.seed = 31;
        const Trace trace = generateTrace(wc);

        std::uint64_t reads = 0, writes = 0;
        for (const auto &r : trace)
            (r.op == IoOp::Read ? reads : writes) += 1;
        ssd.run(trace);

        const SsdMetrics &m = ssd.metrics();
        EXPECT_EQ(m.reads, reads);
        EXPECT_EQ(m.writes, writes);
        EXPECT_GT(m.erases, 0u);
        EXPECT_GT(m.gcInvocations, 0u);
        EXPECT_GE(m.writeAmplification(), 1.0);

        // Queued mode accounts every transfer through a grant; the host
        // side must have granted at least one bus slice per completed op.
        EXPECT_GT(m.hostChannelGrants, 0u);
        EXPECT_GT(m.gcChannelGrants, 0u);
        EXPECT_GT(m.eraseChannelGrants, 0u);

        // No channel can be busy longer than the run lasted, and at least
        // one channel did real work.
        ASSERT_EQ(m.channelBusyTicks.size(),
                  static_cast<std::size_t>(cfg.channels));
        for (int ch = 0; ch < cfg.channels; ++ch) {
            EXPECT_LE(m.channelBusyTicks[ch], m.simulatedTime);
            EXPECT_GE(m.channelUtilization(ch), 0.0);
            EXPECT_LE(m.channelUtilization(ch), 1.0);
        }
        EXPECT_GT(m.maxChannelUtilization(), 0.0);
        EXPECT_GE(m.avgHostChannelWaitUs(), 0.0);
        EXPECT_GE(m.avgGcChannelWaitUs(), 0.0);
    }
}

TEST(TopologyQueued, LegacyAndQueuedConserveTheSameWork)
{
    // The two arbitration models may time requests differently, but the
    // *work* is conserved identically: same trace, same completed ops,
    // same user-visible write amplification drivers.
    SyntheticConfig wc;
    wc.spec = workloadByName("prxy");
    wc.footprintPages = SsdConfig::tiny().logicalPages();
    wc.numRequests = 4000;
    wc.seed = 31;
    const Trace trace = generateTrace(wc);

    SsdMetrics results[2];
    const Arbitration models[2] = {Arbitration::Legacy,
                                   Arbitration::Queued};
    for (int i = 0; i < 2; ++i) {
        SsdConfig cfg = SsdConfig::tiny();
        cfg.arbitration = models[i];
        cfg.seed = 99;
        Ssd ssd(cfg);
        ssd.run(trace);
        results[i] = ssd.metrics();
    }
    EXPECT_EQ(results[0].reads, results[1].reads);
    EXPECT_EQ(results[0].writes, results[1].writes);
    // Grant counters only move under queued arbitration.
    EXPECT_EQ(results[0].hostChannelGrants, 0u);
    EXPECT_GT(results[1].hostChannelGrants, 0u);
}

// ---------------------------------------------------------------------------
// Thread-count invariance: a sweep over the new reclamation axes is
// bit-identical at 1 and 4 worker threads, including the JSON report.
// ---------------------------------------------------------------------------

TEST(TopologySweep, ReclamationAxesAreThreadCountInvariant)
{
    SweepSpec spec;
    spec.gcPolicies = {GcPolicy::Greedy, GcPolicy::FifoLog};
    spec.wearLevels = {WearLevel::None, WearLevel::Dynamic};
    spec.requests = 800;
    ASSERT_EQ(spec.size(), 4u);

    const auto one = SweepRunner(1).run(spec);
    const auto four = SweepRunner(4).run(spec);
    ASSERT_EQ(one.size(), spec.size());
    ASSERT_EQ(four.size(), spec.size());

    // The swept axes must land on the points in expand() order...
    bool saw_fifo = false, saw_dynamic = false;
    for (const auto &r : one) {
        saw_fifo |= r.point.gcPolicy == GcPolicy::FifoLog;
        saw_dynamic |= r.point.wearLevel == WearLevel::Dynamic;
    }
    EXPECT_TRUE(saw_fifo);
    EXPECT_TRUE(saw_dynamic);

    // ...and the full report (axes, points, metrics) is bit-identical.
    EXPECT_EQ(sweepReport(spec, one).dump(2),
              sweepReport(spec, four).dump(2));
    EXPECT_EQ(toCsv(one), toCsv(four));
}

} // namespace
} // namespace aero
