/**
 * @file
 * Workload-substrate tests: Table 3 presets and the synthetic generator's
 * fidelity to the published trace characteristics.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/presets.hh"
#include "workload/synthetic.hh"
#include "workload/trace_stats.hh"

namespace aero
{
namespace
{

TEST(Presets, AllElevenWorkloadsPresent)
{
    const auto &ws = table3Workloads();
    ASSERT_EQ(ws.size(), 11u);
    EXPECT_EQ(ws.front().name, "ali.A");
    EXPECT_EQ(ws.back().name, "usr");
}

TEST(Presets, LookupByNameAndSource)
{
    EXPECT_DOUBLE_EQ(workloadByName("prxy").readRatio, 0.65);
    EXPECT_DOUBLE_EQ(workloadByName("prxy_1").readRatio, 0.65);
    // The message must list the valid names AND point at the
    // trace-backed '@<file>' alternative.
    EXPECT_DEATH(workloadByName("nope"),
                 "unknown workload.*ali\\.A.*trace-backed");
}

TEST(Presets, MsrcTracesAccelerated10x)
{
    const auto &rsrch = workloadByName("rsrch");
    EXPECT_TRUE(rsrch.msrc);
    EXPECT_NEAR(rsrch.effectiveInterArrivalMs(), 42.19, 1e-9);
    const auto &ali = workloadByName("ali.E");
    EXPECT_FALSE(ali.msrc);
    EXPECT_NEAR(ali.effectiveInterArrivalMs(), 5.1, 1e-9);
}

TEST(Synthetic, TraceIsTimeOrderedAndBounded)
{
    SyntheticConfig cfg;
    cfg.spec = workloadByName("hm");
    cfg.footprintPages = 10000;
    cfg.numRequests = 5000;
    const auto trace = generateTrace(cfg);
    ASSERT_EQ(trace.size(), 5000u);
    Tick prev = 0;
    for (const auto &r : trace) {
        EXPECT_GE(r.arrival, prev);
        prev = r.arrival;
        EXPECT_GE(r.pages, 1u);
        EXPECT_LE(r.startPage + r.pages, cfg.footprintPages);
    }
}

TEST(Synthetic, DeterministicForSeed)
{
    SyntheticConfig cfg;
    cfg.spec = workloadByName("ali.C");
    cfg.footprintPages = 5000;
    cfg.numRequests = 1000;
    const auto a = generateTrace(cfg);
    const auto b = generateTrace(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].startPage, b[i].startPage);
    }
}

/** 64-bit FNV-1a over every field of every record, little-endian;
 *  @p records counts what the stream yielded. */
std::uint64_t
traceDigest(TraceStream &stream, std::uint64_t &records)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    records = 0;
    TraceRecord r;
    while (stream.next(r)) {
        records += 1;
        mix(r.arrival, 8);
        mix(static_cast<std::uint64_t>(r.op), 1);
        mix(r.startPage, 8);
        mix(r.pages, 4);
        mix(r.tenant, sizeof(TenantId));
    }
    return h;
}

TEST(Synthetic, GeneratorOutputIsPinnedForEveryTable3Workload)
{
    // Any change to the generated records or their order moves a digest,
    // and with it every figure replayed from a synthetic trace.
    struct Pin
    {
        const char *workload;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"ali.A", 99, 0x812adf051dc086cfULL},
        {"ali.A", 7, 0x6963a090daff02cdULL},
        {"ali.B", 99, 0xa02ebde6a63cbb74ULL},
        {"ali.B", 7, 0x11f2cb43c5cb39cbULL},
        {"ali.C", 99, 0x9d5d851eb7bc4fecULL},
        {"ali.C", 7, 0xc386cff1a734c44aULL},
        {"ali.D", 99, 0x5c4f18e3d26f0d4eULL},
        {"ali.D", 7, 0x8b76ceae7c12cdefULL},
        {"ali.E", 99, 0xceec8d4e990c43caULL},
        {"ali.E", 7, 0xc636ef10897f178aULL},
        {"rsrch", 99, 0x408500e5a592016dULL},
        {"rsrch", 7, 0xaa802c69ad916a30ULL},
        {"stg", 99, 0x290bde3aa0038a75ULL},
        {"stg", 7, 0xdf320bfbc753bb00ULL},
        {"hm", 99, 0x68ae7ef0791ebab8ULL},
        {"hm", 7, 0x4f4ea2385fcf3ce8ULL},
        {"prxy", 99, 0x5ff98b9f65ecedeeULL},
        {"prxy", 7, 0xa7eda3f502d39b2dULL},
        {"proj", 99, 0x3d604716b457ed89ULL},
        {"proj", 7, 0xdfdd30e80d6ac52bULL},
        {"usr", 99, 0x2025169b96df161dULL},
        {"usr", 7, 0x0859d2dc97f9f653ULL},
    };
    for (const Pin &pin : pins) {
        SyntheticConfig cfg;
        cfg.spec = workloadByName(pin.workload);
        cfg.footprintPages = 1 << 18;
        cfg.numRequests = 20000;
        cfg.seed = pin.seed;
        SyntheticTraceStream stream(cfg);
        std::uint64_t records = 0;
        const std::uint64_t digest = traceDigest(stream, records);
        EXPECT_EQ(records, cfg.numRequests) << pin.workload;
        EXPECT_EQ(digest, pin.digest) << pin.workload << " seed "
                                      << pin.seed << ": 0x" << std::hex
                                      << digest;
    }
}

TEST(Synthetic, FootprintBelowTheLargestRequestIsRejected)
{
    SyntheticConfig cfg;
    cfg.spec = workloadByName("ali.A");
    cfg.footprintPages = kMaxRequestPages - 1;
    EXPECT_DEATH(SyntheticTraceStream{cfg},
                 "footprint of 63 pages is smaller than the 64-page");
}

TEST(Synthetic, SmallestFootprintKeepsEveryRequestInRange)
{
    // Sizes up to the 64-page cap over a 64-page footprint: every
    // request spans the whole footprint at most, on both the Zipf and
    // the sequential-write path. 4-KiB pages put ali.A's 54 KB mean at
    // 13.5 pages, so the cap is drawn too.
    SyntheticConfig cfg;
    cfg.spec = workloadByName("ali.A");
    cfg.pageSizeKB = 4;
    cfg.footprintPages = kMaxRequestPages;
    cfg.numRequests = 200000;
    cfg.seed = 1;
    SyntheticTraceStream stream(cfg);
    TraceRecord r;
    std::uint64_t records = 0, longest = 0;
    while (stream.next(r)) {
        records += 1;
        longest = std::max<std::uint64_t>(longest, r.pages);
        ASSERT_LE(r.startPage + r.pages, cfg.footprintPages)
            << "record " << records;
    }
    EXPECT_EQ(records, cfg.numRequests);
    EXPECT_EQ(longest, kMaxRequestPages);
}

/** Table-3 aggregates of the synthetic stream for @p cfg. */
TraceStats
syntheticStats(const SyntheticConfig &cfg)
{
    SyntheticTraceStream stream(cfg);
    return computeStreamStats(stream, cfg.pageSizeKB, false).total;
}

TEST(Synthetic, IntensityScaleSpeedsArrivals)
{
    SyntheticConfig cfg;
    cfg.spec = workloadByName("stg");
    cfg.footprintPages = 5000;
    cfg.numRequests = 4000;
    const auto slow = syntheticStats(cfg);
    cfg.intensityScale = 4.0;
    const auto fast = syntheticStats(cfg);
    EXPECT_NEAR(slow.avgInterArrivalMs / fast.avgInterArrivalMs, 4.0,
                0.5);
}

TEST(Synthetic, ZipfLocalityConcentratesAccesses)
{
    SyntheticConfig cfg;
    cfg.spec = workloadByName("ali.E");
    cfg.footprintPages = 100000;
    cfg.numRequests = 20000;
    SyntheticTraceStream stream(cfg);
    const auto stats = computeExtendedStats(stream, cfg.pageSizeKB);
    // The hottest 1% of touched pages absorb far more than 1% of hits.
    EXPECT_GT(stats.hot1pctFraction, 0.05);
    EXPECT_GT(stats.distinctPages, 1000u);
}

TEST(TraceStats, RowFormatting)
{
    Trace t;
    t.push_back({0, IoOp::Read, 0, 2});
    t.push_back({msToTicks(10.0), IoOp::Write, 4, 1});
    VectorTraceStream stream(t);
    const auto s = computeStreamStats(stream, 16).total;
    EXPECT_DOUBLE_EQ(s.readRatio, 0.5);
    EXPECT_DOUBLE_EQ(s.avgReqSizeKB, 24.0);
    EXPECT_DOUBLE_EQ(s.avgInterArrivalMs, 10.0);
    const auto row = statsRow("x", s);
    EXPECT_NE(row.find("50.0%"), std::string::npos);
}

/** Table 3 fidelity: every workload's generated trace reproduces the
 *  published read ratio, request size, and inter-arrival time. */
class Table3Sweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Table3Sweep, GeneratedTraceMatchesPublishedMoments)
{
    const auto &spec = workloadByName(GetParam());
    SyntheticConfig cfg;
    cfg.spec = spec;
    cfg.footprintPages = 200000;
    cfg.numRequests = 20000;
    const auto stats = syntheticStats(cfg);
    EXPECT_NEAR(stats.readRatio, spec.readRatio, 0.02);
    // Sizes are quantized to whole 16-KiB flash pages (how the FTL
    // services them), so small-request traces (rsrch/hm: 8-9 KB) land at
    // the one-page floor; allow one page of quantization slack.
    EXPECT_NEAR(stats.avgReqSizeKB, spec.avgReqSizeKB,
                0.25 * spec.avgReqSizeKB + cfg.pageSizeKB * 0.75);
    EXPECT_NEAR(stats.avgInterArrivalMs, spec.effectiveInterArrivalMs(),
                0.05 * spec.effectiveInterArrivalMs());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Table3Sweep,
    ::testing::Values("ali.A", "ali.B", "ali.C", "ali.D", "ali.E",
                      "rsrch", "stg", "hm", "prxy", "proj", "usr"));

} // namespace
} // namespace aero
