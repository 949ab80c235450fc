/**
 * @file
 * The paper's Table-2 drive (SsdConfig::paper(), 67.2M pages) under
 * test: condition it exactly as perfbench's paper-drive workload does
 * (AERO, PEC 2500, seed 7 ^ 0x51, legacy arbitration), then replay a
 * short prxy trace. Pins the warmup erase count that perfbench's traced
 * paper-drive run reports and the digest of the whole conditioned
 * drive state, requires the replay to drain, and puts a
 * ceiling on the process's peak resident set (VmHWM). Registered as the
 * CTest `perf.paper_drive_conditioning` (label `perf`), which the
 * sanitizer presets skip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "conditioning_digest.hh"
#include "ssd/ssd.hh"
#include "workload/presets.hh"
#include "workload/synthetic.hh"

namespace aero
{
namespace
{

/** Warmup erases of perfbench's paper-drive point at seed 7. */
constexpr std::uint64_t kWarmupErases = 6232;

/**
 * test::conditionedStateDigest of the conditioned drive, captured from
 * the per-page prefill and GC relocation loops the bulk path replaced.
 */
constexpr std::uint64_t kStateDigest = 0xc66f4245f851b9b1ULL;

/**
 * Peak RSS ceiling, in MiB. The two 32-bit page-map tables alone take
 * about 460 MiB and the whole test peaks near 475 MiB; 64-bit tables
 * would take it past 900 MiB.
 */
constexpr double kPeakRssCeilingMb = 560.0;

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

TEST(PaperDrive, ConditionsLikePerfbenchAndReplaysWithinTheRssCeiling)
{
    const std::uint64_t seed = 7;
    SsdConfig cfg = SsdConfig::paper();
    cfg.scheme = SchemeKind::Aero;
    cfg.initialPec = 2500.0;
    cfg.arbitration = Arbitration::Legacy;
    cfg.seed = seed ^ 0x51ULL;
    Ssd ssd(cfg);
    EXPECT_EQ(ssd.ftl().warmupErases(), kWarmupErases);
    const std::uint64_t digest = test::conditionedStateDigest(ssd);
    std::printf("paper drive: state digest 0x%016llxULL\n",
                static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, kStateDigest);

    SyntheticConfig wc;
    wc.spec = workloadByName("prxy");
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = 20000;
    wc.seed = seed;
    const Trace trace = generateTrace(wc);
    ssd.run(trace);
    const SsdMetrics &m = ssd.metrics();
    EXPECT_EQ(m.reads + m.writes, trace.size());
    EXPECT_TRUE(ssd.eventQueue().empty());
    EXPECT_TRUE(ssd.ftl().drained());

    const double peak = peakRssMb();
    ASSERT_GT(peak, 0.0) << "no VmHWM in /proc/self/status";
    EXPECT_LT(peak, kPeakRssCeilingMb);
    std::printf("paper drive: %llu warmup erases, peak RSS %.1f MB\n",
                static_cast<unsigned long long>(ssd.ftl().warmupErases()),
                peak);
}

} // namespace
} // namespace aero
