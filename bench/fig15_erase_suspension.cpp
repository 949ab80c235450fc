/**
 * @file
 * Reproduces Fig. 15: impact of erase suspension on read tail latency.
 * Compares Baseline / AERO-CONS / AERO with suspension enabled and
 * disabled, at the three PEC points, normalized to Baseline WITHOUT
 * suspension. The 3 x 2 x 3 grid runs through SweepRunner; `--json` /
 * `--csv` drop the raw rows.
 *
 * Paper reference: without suspension AERO cuts the 99.9999th percentile
 * by <45,44,16>% vs <43,23,5>% with suspension; suspension itself
 * helps everyone, and AERO composes with it.
 */

#include "bench_util.hh"
#include "exp/sweep.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Figure 15: erase suspension vs AERO");

    // --small pins a fixed request count so the golden baselines do not
    // depend on AERO_SIM_REQUESTS; the grid shape is already compact.
    SweepSpec spec;
    spec.schemes = {SchemeKind::Baseline, SchemeKind::AeroCons,
                    SchemeKind::Aero};
    spec.pecs = paperPecPoints();
    spec.suspensions = {SuspensionMode::None, SuspensionMode::MidSegment};
    spec.requests = artifacts.small ? 2000 : defaultSimRequests();
    std::printf("workload prxy, %llu requests/run, %zu points on %d "
                "threads\n",
                static_cast<unsigned long long>(spec.requests), spec.size(),
                SweepRunner().threads());
    const auto results = runCampaign(
        artifacts.campaign, "fig15_erase_suspension", configOf(spec),
        [&](const CampaignScope &scope) {
            return SweepRunner().run(spec, scope);
        });
    artifacts.writeSweep(spec, results);

    bench::rule();
    std::printf("%6s | %-10s | %10s | %18s | %18s\n", "PEC", "scheme",
                "suspension", "p99.99 (norm)", "p99.9999 (norm)");
    bench::rule();
    for (std::size_t pi = 0; pi < spec.pecs.size(); ++pi) {
        // Normalize to Baseline without suspension (susp index 0).
        const auto &base = results[spec.index({{Axis::Pec, pi}})];
        for (std::size_t mi = 0; mi < spec.suspensions.size(); ++mi) {
            for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
                const auto &r = results[spec.index(
                    {{Axis::Pec, pi}, {Axis::Suspension, mi},
                     {Axis::Scheme, si}})];
                std::printf("%6.0f | %-10s | %10s | %9.0fus (%4.2f) | "
                            "%9.0fus (%4.2f)\n",
                            spec.pecs[pi], schemeKindName(spec.schemes[si]),
                            spec.suspensions[mi] == SuspensionMode::None
                                ? "off"
                                : "on",
                            r.p9999Us, r.p9999Us / base.p9999Us,
                            r.p999999Us, r.p999999Us / base.p999999Us);
            }
        }
        bench::rule();
    }
    bench::note("normalized to Baseline without suspension; paper: AERO "
                "benefits are larger without suspension");
    return 0;
}
