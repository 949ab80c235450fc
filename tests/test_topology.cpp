/**
 * @file
 * Drive-topology battery: the DriveGeometry page-index encoding is a
 * bijection that agrees with PageMapping's PPN layout, misconfigured
 * geometries die with exact diagnostics, queued channel arbitration
 * conserves every request and keeps its grant accounting consistent,
 * and a sweep over the reclamation axes is bit-identical at 1 and N
 * worker threads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "exp/report.hh"
#include "exp/sweep.hh"
#include "ssd/geometry.hh"
#include "ssd/mapping.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace aero
{
namespace
{

DriveGeometry
geomOf(const SsdConfig &cfg)
{
    return DriveGeometry::of(cfg);
}

TEST(Topology, TinyGeometryDerivesFromConfig)
{
    const SsdConfig cfg = SsdConfig::tiny();
    const DriveGeometry g = geomOf(cfg);
    EXPECT_EQ(g.channels, cfg.channels);
    EXPECT_EQ(g.diesPerChannel, cfg.chipsPerChannel);
    EXPECT_EQ(g.planesPerDie, cfg.geometry.planes);
    EXPECT_EQ(g.blocksPerPlane, cfg.geometry.blocksPerPlane);
    EXPECT_EQ(g.pagesPerBlock, cfg.geometry.pagesPerBlock);
    EXPECT_EQ(g.totalDies(), cfg.channels * cfg.chipsPerChannel);
    EXPECT_EQ(g.totalPages(),
              static_cast<std::uint64_t>(g.totalDies()) *
                  g.planesPerDie * g.blocksPerPlane * g.pagesPerBlock);
}

// pgidx -> Ppa -> pgidx is the identity over the whole drive, and every
// decomposed field stays inside its level's bounds.
void
expectBijective(const DriveGeometry &g)
{
    for (std::uint64_t idx = 0; idx < g.totalPages(); ++idx) {
        const Ppa ppa = g.ppaOf(idx);
        ASSERT_GE(ppa.channel, 0);
        ASSERT_LT(ppa.channel, g.channels);
        ASSERT_GE(ppa.die, 0);
        ASSERT_LT(ppa.die, g.diesPerChannel);
        ASSERT_GE(ppa.plane, 0);
        ASSERT_LT(ppa.plane, g.planesPerDie);
        ASSERT_GE(ppa.block, 0);
        ASSERT_LT(ppa.block, g.blocksPerPlane);
        ASSERT_GE(ppa.page, 0);
        ASSERT_LT(ppa.page, g.pagesPerBlock);
        ASSERT_EQ(g.pageIndex(ppa), idx);
    }
}

TEST(Topology, PageIndexIsABijectionOnTiny)
{
    expectBijective(geomOf(SsdConfig::tiny()));
}

TEST(Topology, PageIndexIsABijectionOnBench)
{
    expectBijective(geomOf(SsdConfig::bench()));
}

TEST(Topology, PageIndexIsDenseInNestedOrder)
{
    const DriveGeometry g = geomOf(SsdConfig::tiny());
    std::uint64_t expect = 0;
    for (int ch = 0; ch < g.channels; ++ch)
        for (int die = 0; die < g.diesPerChannel; ++die)
            for (int pl = 0; pl < g.planesPerDie; ++pl)
                for (int b = 0; b < g.blocksPerPlane; ++b)
                    for (int pg = 0; pg < g.pagesPerBlock; ++pg)
                        ASSERT_EQ(g.pageIndex({ch, die, pl, b, pg}),
                                  expect++);
    EXPECT_EQ(expect, g.totalPages());
}

TEST(Topology, ChipIndexingRoundTrips)
{
    const DriveGeometry g = geomOf(SsdConfig::bench());
    for (int ch = 0; ch < g.channels; ++ch) {
        for (int die = 0; die < g.diesPerChannel; ++die) {
            const Ppa ppa{ch, die, 0, 0, 0};
            const int chip = g.chipOf(ppa);
            EXPECT_EQ(g.channelOfChip(chip), ch);
            EXPECT_EQ(chip % g.diesPerChannel, die);
        }
    }
}

// The flat page index must agree with PageMapping's (chip, chip-block,
// page) PPN encode — the FTL's mapping and the geometry's addressing are
// the same coordinate system.
TEST(Topology, PageIndexAgreesWithMappingEncode)
{
    const SsdConfig cfg = SsdConfig::tiny();
    const DriveGeometry g = geomOf(cfg);
    PageMapping mapping(cfg.logicalPages(), g.totalDies(),
                        g.blocksPerDie(), g.pagesPerBlock);
    for (std::uint64_t idx = 0; idx < g.totalPages(); ++idx) {
        const Ppa ppa = g.ppaOf(idx);
        const Ppn ppn = mapping.encode(g.chipOf(ppa), g.chipBlockOf(ppa),
                                       ppa.page);
        ASSERT_EQ(static_cast<std::uint64_t>(ppn), idx)
            << "ppn/pgidx disagree at channel " << ppa.channel << " die "
            << ppa.die << " plane " << ppa.plane << " block " << ppa.block
            << " page " << ppa.page;
    }
}

TEST(Topology, ChipBlockIsPlaneMajor)
{
    const DriveGeometry g = geomOf(SsdConfig::bench());
    EXPECT_EQ(g.chipBlockOf({0, 0, 0, 5, 0}), 5);
    EXPECT_EQ(g.chipBlockOf({0, 0, 1, 0, 0}), g.blocksPerPlane);
    EXPECT_EQ(g.chipBlockOf({0, 0, 3, 7, 0}), 3 * g.blocksPerPlane + 7);
}

// ---------------------------------------------------------------------------
// Misconfiguration death tests: exact diagnostics, not just "it died".
// ---------------------------------------------------------------------------

DriveGeometry
validGeom()
{
    return geomOf(SsdConfig::tiny());
}

TEST(TopologyDeathTest, ZeroChannelsDies)
{
    DriveGeometry g = validGeom();
    g.channels = 0;
    EXPECT_DEATH(g.validate(),
                 "geometry: channel count must be positive, got 0");
}

TEST(TopologyDeathTest, ZeroDiesPerChannelDies)
{
    DriveGeometry g = validGeom();
    g.diesPerChannel = 0;
    EXPECT_DEATH(g.validate(),
                 "geometry: dies per channel must be positive, got 0");
}

TEST(TopologyDeathTest, NegativePlaneCountDies)
{
    DriveGeometry g = validGeom();
    g.planesPerDie = -1;
    EXPECT_DEATH(g.validate(),
                 "geometry: plane count must be positive, got -1");
}

TEST(TopologyDeathTest, PlaneCountBeyondDieLimitDies)
{
    DriveGeometry g = validGeom();
    g.planesPerDie = 9;
    EXPECT_DEATH(g.validate(),
                 "geometry: plane count 9 exceeds the per-die limit of 8");
}

TEST(TopologyDeathTest, ZeroBlocksPerPlaneDies)
{
    DriveGeometry g = validGeom();
    g.blocksPerPlane = 0;
    EXPECT_DEATH(g.validate(),
                 "geometry: blocks per plane must be positive, got 0");
}

TEST(TopologyDeathTest, ZeroPagesPerBlockDies)
{
    DriveGeometry g = validGeom();
    g.pagesPerBlock = 0;
    EXPECT_DEATH(g.validate(),
                 "geometry: pages per block must be positive, got 0");
}

TEST(TopologyDeathTest, PageCountMustFit32BitPageNumbers)
{
    // validate() only multiplies: no table is allocated at any size.
    // The largest legal drive has 2^32 - 2 = 2 x (2^31 - 1) pages.
    DriveGeometry largest;
    largest.channels = 1;
    largest.diesPerChannel = 1;
    largest.planesPerDie = 2;
    largest.blocksPerPlane = 1;
    largest.pagesPerBlock = 2147483647;
    ASSERT_EQ(largest.totalPages(), PageMapping::kNoEntry - 1ULL);
    largest.validate();  // must not die

    // One page more: 2^32 - 1 = 3 x 5 x (17 x 257) x 65537, a page count
    // equal to the 32-bit sentinel.
    DriveGeometry over;
    over.channels = 3;
    over.diesPerChannel = 5;
    over.planesPerDie = 1;
    over.blocksPerPlane = 17 * 257;
    over.pagesPerBlock = 65537;
    ASSERT_EQ(over.totalPages(), largest.totalPages() + 1);
    EXPECT_DEATH(over.validate(),
                 "geometry: 4294967295 physical pages do not fit 32-bit "
                 "page numbers; a drive must have fewer than 4294967295");

    // A product past 2^64 saturates rather than wrapping under the limit.
    DriveGeometry huge = over;
    huge.channels = huge.diesPerChannel = huge.blocksPerPlane =
        huge.pagesPerBlock = 2147483647;
    huge.planesPerDie = 8;
    ASSERT_EQ(huge.totalPages(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_DEATH(huge.validate(), "physical pages do not fit 32-bit");
}

TEST(TopologyDeathTest, NonPowerOfTwoPagesRejectedOnlyWhenQueued)
{
    // The paper's Table 2 drive (2112 pages/block) is legal under legacy
    // arbitration and rejected only by the queued fast path.
    const DriveGeometry g = geomOf(SsdConfig::paper());
    g.validate();  // must not die
    EXPECT_DEATH(g.validateQueued(),
                 "geometry: pages per block must be a power of two for "
                 "queued arbitration, got 2112");
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
    SsdConfig cfg = SsdConfig::tiny();
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
