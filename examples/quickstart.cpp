/**
 * @file
 * Quickstart: build a simulated SSD with the AERO erase scheme, replay a
 * synthetic datacenter workload, and print the latency/lifetime-relevant
 * metrics. This is the 5-minute tour of the public API:
 *
 *   SsdConfig   -> describe the drive (topology, scheme, conditioning)
 *   Ssd         -> construct (prefills + warms up to steady state)
 *   SyntheticTraceStream -> stream a Table-3-style workload
 *   ssd.run     -> replay to completion, one record resident at a time
 *   ssd.metrics -> exact tail percentiles, IOPS, erase/GC counters
 */

#include <cstdio>

#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

using namespace aero;

int
main()
{
    // A capacity-reduced drive with the paper's topology (Table 2),
    // pre-aged to 2.5K P/E cycles, running full AERO.
    SsdConfig cfg = SsdConfig::bench();
    cfg.scheme = SchemeKind::Aero;
    cfg.initialPec = 2500;
    std::printf("%s\n", cfg.summary().c_str());

    Ssd ssd(cfg);

    // The paper's 'prxy' workload (65% reads, 13 KB, 0.36 ms effective
    // inter-arrival after the 10x MSRC acceleration).
    SyntheticConfig wc;
    wc.spec = workloadByName("prxy");
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = 20000;
    SyntheticTraceStream trace(wc);
    std::printf("replaying %llu requests...\n",
                static_cast<unsigned long long>(wc.numRequests));

    ssd.run(trace);

    const SsdMetrics &m = ssd.metrics();
    std::printf("\nresults\n-------\n%s", m.summary().c_str());
    std::printf("read p99.9   %8.0f us\n",
                ticksToUs(m.readLatency.percentile(0.999)));
    std::printf("read p99.99  %8.0f us\n",
                ticksToUs(m.readLatency.percentile(0.9999)));
    std::printf("read max     %8.0f us\n",
                ticksToUs(m.readLatency.max()));
    return 0;
}
