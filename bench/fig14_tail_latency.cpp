/**
 * @file
 * Reproduces Fig. 14 and Table 4 from one campaign. Fig. 14: normalized
 * 99.99th and 99.9999th percentile read latency for the eleven Table-3
 * workloads at PEC {0.5K, 2.5K, 4.5K}, across the five erase schemes
 * (all normalized to Baseline). Table 4: average read/write latency and
 * IOPS of the four non-baseline schemes, normalized to Baseline, as the
 * geometric mean over workloads and seeds at each PEC point.
 *
 * The whole 11 x 5 x 3 x 3-seed grid is declared once as a SweepSpec and
 * executed by SweepRunner across AERO_SWEEP_THREADS worker threads; both
 * printed tables walk the deterministic result order via
 * SweepSpec::index. `--json`/`--csv` drop the raw per-point rows as
 * machine-readable artifacts.
 *
 * Paper reference: AERO reduces the two tail percentiles by 22% / 26% on
 * average, with benefits of <26,25,13>% / <43,23,5>% at the three PEC
 * points; DPES sometimes regresses (write-latency penalty); i-ISPE
 * matches Baseline at 0.5K where no loop can be skipped. In Table 4 all
 * schemes stay ~100% except DPES, whose write latency grows to 110.8% /
 * 135.6% (and IOPS drops) while its voltage scaling is active; i-ISPE is
 * not evaluated at 4.5K (cannot meet the requirement).
 *
 * Request count per run: AERO_SIM_REQUESTS (default 120000).
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
    bench::header("Figure 14: read tail latency (normalized to Baseline)");

    // --small: the regression-gate grid — three workloads, two PEC
    // points, one seed, a fixed request count (not AERO_SIM_REQUESTS,
    // so the golden baselines are hermetic).
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
        spec.seeds = {7, 1007, 2007};  // tail noise reduction
        spec.requests = defaultSimRequests();
    }
    std::printf("requests/run: %llu%s, "
                "%zu points on %d threads (env AERO_SWEEP_THREADS)\n",
                static_cast<unsigned long long>(spec.requests),
                artifacts.small ? "" : " (env AERO_SIM_REQUESTS)",
                spec.size(), SweepRunner().threads());
    const auto results = runCampaign(
        artifacts.campaign, "fig14_tail_latency", configOf(spec),
        [&](const CampaignScope &scope) {
            return SweepRunner().run(spec, scope);
        });
    artifacts.writeSweep(spec, results);

    // Geometric mean over seeds of one result metric.
    const auto geoSeeds = [&](std::size_t pi, std::size_t wi,
                              std::size_t si, double SimResult::*metric) {
        double acc = 0.0;
        for (std::size_t se = 0; se < spec.seeds.size(); ++se)
            acc += std::log(results[spec.index({{Axis::Pec, pi},
                                                {Axis::Workload, wi},
                                                {Axis::Scheme, si},
                                                {Axis::Seed, se}})].*
                            metric);
        return std::exp(acc / static_cast<double>(spec.seeds.size()));
    };

    for (std::size_t pi = 0; pi < spec.pecs.size(); ++pi) {
        std::printf("\nPEC = %.1fK\n", spec.pecs[pi] / 1000.0);
        bench::rule();
        std::printf("%-7s", "wl");
        for (const auto k : spec.schemes)
            std::printf(" | %9s", schemeKindName(k));
        std::printf("   (p99.99 / p99.9999)\n");
        bench::rule();
        // Geometric means across workloads, per scheme.
        std::vector<std::pair<double, double>> geo(spec.schemes.size());
        for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
            const double base9999 =
                geoSeeds(pi, wi, 0, &SimResult::p9999Us);
            const double base6 =
                geoSeeds(pi, wi, 0, &SimResult::p999999Us);
            std::printf("%-7s", spec.workloads[wi].c_str());
            for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
                const double n9999 =
                    geoSeeds(pi, wi, si, &SimResult::p9999Us) / base9999;
                const double n6 =
                    geoSeeds(pi, wi, si, &SimResult::p999999Us) / base6;
                std::printf(" | %4.2f %4.2f", n9999, n6);
                geo[si].first += std::log(n9999);
                geo[si].second += std::log(n6);
            }
            std::printf("\n");
        }
        bench::rule();
        std::printf("%-7s", "G.M.");
        const double n = static_cast<double>(spec.workloads.size());
        for (const auto &[g1, g2] : geo)
            std::printf(" | %4.2f %4.2f", std::exp(g1 / n),
                        std::exp(g2 / n));
        std::printf("\n");
    }
    bench::note("paper G.M. for AERO: p99.9999 0.57/0.77/0.95 at "
                "0.5K/2.5K/4.5K; DPES ~1.0 or worse; i-ISPE ~1.0 at 0.5K");

    // Table 4: geometric mean over workloads and seeds of each average
    // metric, normalized to Baseline at the same seed.
    bench::header("Table 4: average I/O performance (normalized %)");
    bench::rule();
    std::printf("%-10s | %6s | %10s | %11s | %9s\n", "scheme", "PEC",
                "avg read", "avg write", "IOPS");
    bench::rule();
    for (std::size_t si = 1; si < spec.schemes.size(); ++si) {
        for (std::size_t pi = 0; pi < spec.pecs.size(); ++pi) {
            double gr = 0, gw = 0, gi = 0;
            for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
                for (std::size_t se = 0; se < spec.seeds.size(); ++se) {
                    const auto &base = results[spec.index(
                        {{Axis::Pec, pi}, {Axis::Workload, wi},
                         {Axis::Seed, se}})];
                    const auto &r = results[spec.index(
                        {{Axis::Pec, pi}, {Axis::Workload, wi},
                         {Axis::Scheme, si}, {Axis::Seed, se}})];
                    gr += std::log(r.avgReadUs / base.avgReadUs);
                    gw += std::log(r.avgWriteUs / base.avgWriteUs);
                    gi += std::log(r.iops / base.iops);
                }
            }
            const double n = static_cast<double>(spec.workloads.size() *
                                                 spec.seeds.size());
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
