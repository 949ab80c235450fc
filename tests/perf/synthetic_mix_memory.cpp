/**
 * @file
 * Bounded trace memory: 12M synthetic records, pulled through a
 * two-tenant TenantMix of SyntheticTraceStreams into computeStreamStats,
 * must leave the process's peak resident set (VmHWM) under 64 MiB. The
 * same records held as Trace vectors would take 384 MB (32 B each).
 * Registered as the CTest `perf.synthetic_mix_memory` (label `perf`),
 * which the sanitizer presets skip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "workload/synthetic.hh"
#include "workload/trace_io/tenant.hh"

namespace aero
{
namespace
{

constexpr std::uint64_t kRecordsPerTenant = 6'000'000;
constexpr double kPeakRssCeilingMb = 64.0;

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return -1.0;
}

TEST(SyntheticMix, TwelveMillionRecordsStayUnderTheRssCeiling)
{
    std::vector<std::unique_ptr<TraceStream>> streams;
    for (const char *workload : {"prxy", "ali.A"}) {
        SyntheticConfig wc;
        wc.spec = workloadByName(workload);
        wc.footprintPages = 1 << 24;
        wc.numRequests = kRecordsPerTenant;
        wc.seed = 7;
        streams.push_back(std::make_unique<SyntheticTraceStream>(wc));
    }
    TenantMix mix(std::move(streams));
    const StreamTraceStats stats = computeStreamStats(mix, 16);

    EXPECT_EQ(stats.total.requests, 2 * kRecordsPerTenant);
    ASSERT_EQ(stats.perTenant.size(), 2u);
    EXPECT_EQ(stats.perTenant[0].requests, kRecordsPerTenant);
    EXPECT_EQ(stats.perTenant[1].requests, kRecordsPerTenant);

    const double peak = peakRssMb();
    ASSERT_GT(peak, 0.0) << "no VmHWM in /proc/self/status";
    EXPECT_LT(peak, kPeakRssCeilingMb);
    std::printf("synthetic mix: %llu records, peak RSS %.1f MB\n",
                static_cast<unsigned long long>(stats.total.requests),
                peak);
}

} // namespace
} // namespace aero
