/**
 * @file
 * Datacenter scenario: a latency-sensitive service (the paper's
 * motivation) runs the same workload on drives that differ only in their
 * erase scheme. Prints the read-tail comparison that makes the case for
 * AERO: erase operations rarely touch the average but dominate the
 * 99.99th+ percentiles, and AERO shrinks exactly those.
 *
 * The five drives are declared as one SweepSpec and simulated in
 * parallel by SweepRunner (AERO_SWEEP_THREADS controls the pool).
 *
 * Usage: tail_latency_comparison [workload] [pec] [requests] [--json out]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parse.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const char *wl = "ali.D";
    double pec = 2500.0;
    std::uint64_t requests = 30000;
    std::string json_path;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json needs a file path\n");
                return 1;
            }
            json_path = argv[++i];
            continue;
        }
        switch (positional++) {
          case 0: wl = argv[i]; break;
          case 1: pec = std::atof(argv[i]); break;
          case 2:
            requests = parseDecimalOrDie<std::uint64_t>("requests", argv[i]);
            break;
          default:
            std::fprintf(stderr, "unexpected argument '%s' (usage: %s "
                                 "[workload] [pec] [requests] "
                                 "[--json out])\n",
                         argv[i], argv[0]);
            return 1;
        }
    }

    SweepSpec spec;
    spec.workloads = {wl};
    spec.schemes = allSchemes();
    spec.pecs = {pec};
    spec.requests = requests;

    std::printf("workload %s at %.0f P/E cycles, %llu requests, "
                "%d sweep threads\n\n",
                wl, pec, static_cast<unsigned long long>(requests),
                SweepRunner().threads());
    const auto results = SweepRunner().run(spec);
    if (!json_path.empty())
        writeJsonFile(json_path, sweepReport(spec, results));

    std::printf("%-10s | %8s | %8s | %8s | %8s | %9s\n", "scheme",
                "avg[us]", "p99.9", "p99.99", "p99.9999", "erase[ms]");
    std::printf("%s\n", std::string(70, '-').c_str());

    const double base_9999 = results.front().p9999Us;
    for (const auto &r : results) {
        std::printf("%-10s | %8.1f | %8.0f | %8.0f | %8.0f | %9.2f"
                    "   (p99.99 %.2fx)\n",
                    schemeKindName(r.point.scheme), r.avgReadUs, r.p999Us,
                    r.p9999Us, r.p999999Us, r.avgEraseMs,
                    r.p9999Us / base_9999);
    }
    std::printf("\nAERO attacks the tail: erases are rare, so averages "
                "barely move, but every\nblocked read at the 99.99th "
                "percentile waits on an erase loop AERO made shorter.\n");
    return 0;
}
