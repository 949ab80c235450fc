/**
 * @file
 * Reproduces Table 4: average read/write latency and IOPS of the four
 * non-baseline schemes, normalized to Baseline, geometric-mean across
 * the eleven workloads at PEC {0.5K, 2.5K, 4.5K}. The 11 x 5 x 3 grid
 * runs through SweepRunner; `--json`/`--csv` drop the raw rows.
 *
 * Paper reference: all schemes ~100% except DPES, whose write latency
 * grows to 110.8% / 135.6% (and IOPS drops) while its voltage scaling is
 * active; i-ISPE is not evaluated at 4.5K (cannot meet the requirement).
 */

#include <cmath>

#include "bench_util.hh"
#include "exp/sweep.hh"
#include "workload/presets.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Table 4: average I/O performance (normalized %)");

    // --small: the regression-gate grid (three workloads, two PEC
    // points, fixed request count so the baselines are hermetic).
    SweepSpec spec;
    spec.schemes = allSchemes();
    if (artifacts.small) {
        spec.workloads = {"prxy", "hm", "usr"};
        spec.pecs = {500.0, 2500.0};
        spec.requests = 2000;
    } else {
        spec.workloads.clear();
        for (const auto &w : table3Workloads())
            spec.workloads.push_back(w.name);
        spec.pecs = paperPecPoints();
        spec.requests = defaultSimRequests();
    }
    std::printf("requests/run: %llu, %zu points on %d threads\n",
                static_cast<unsigned long long>(spec.requests), spec.size(),
                SweepRunner().threads());
    const auto results = runCampaign(
        artifacts.campaign, "tab04_avg_performance", configOf(spec),
        [&](const CampaignScope &scope) {
            return SweepRunner().run(spec, scope);
        });
    artifacts.writeSweep(spec, results);

    bench::rule();
    std::printf("%-10s | %6s | %10s | %11s | %9s\n", "scheme", "PEC",
                "avg read", "avg write", "IOPS");
    bench::rule();
    for (std::size_t si = 1; si < spec.schemes.size(); ++si) {
        for (std::size_t pi = 0; pi < spec.pecs.size(); ++pi) {
            double gr = 0, gw = 0, gi = 0;
            for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
                const auto &base = results[spec.index(
                    {{Axis::Pec, pi}, {Axis::Workload, wi}})];
                const auto &r = results[spec.index(
                    {{Axis::Pec, pi}, {Axis::Workload, wi},
                     {Axis::Scheme, si}})];
                gr += std::log(r.avgReadUs / base.avgReadUs);
                gw += std::log(r.avgWriteUs / base.avgWriteUs);
                gi += std::log(r.iops / base.iops);
            }
            const double n = static_cast<double>(spec.workloads.size());
            std::printf("%-10s | %6.0f | %9.1f%% | %10.1f%% | %8.1f%%\n",
                        schemeKindName(spec.schemes[si]), spec.pecs[pi],
                        100.0 * std::exp(gr / n), 100.0 * std::exp(gw / n),
                        100.0 * std::exp(gi / n));
        }
        bench::rule();
    }
    bench::note("paper: DPES write latency 110.8%/135.6% at 0.5K/2.5K, "
                "back to 100% at 4.5K; everything else ~100%");
    return 0;
}
