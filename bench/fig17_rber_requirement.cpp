/**
 * @file
 * Reproduces Fig. 17: sensitivity to the RBER requirement {40, 50, 63}
 * bits per 1 KiB (weaker ECC shrinks the margin AERO can spend).
 * The three requirements run as independent thread-pool tasks (each
 * lifetime run is itself chip-sharded); the latency side is two
 * SweepSpecs, one Baseline reference per PEC (Baseline ignores the
 * requirement) plus AERO over PEC x requirement. `--json`/`--csv` drop
 * an `aero-devchar/1` artifact, `--small` runs the regression-gate
 * config.
 *
 * Paper reference: AERO still beats AERO-CONS by ~14% in lifetime at the
 * 40-bit requirement, with the largest benefit around 2.5K PEC.
 */

#include <tuple>

#include "bench_records.hh"
#include "bench_util.hh"
#include "devchar/lifetime.hh"
#include "devchar/simstudy.hh"
#include "exp/sweep.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Figure 17: impact of the RBER requirement");
    const std::vector<int> requirements = {40, 50, 63};
    const int farm_chips = artifacts.small ? 4 : 6;
    const int farm_blocks = artifacts.small ? 8 : 12;

    bench::DevcharReport report("fig17_rber_requirement",
                                {"kind", "rber_requirement", "pec"});
    report.spec["num_chips"] = farm_chips;
    report.spec["blocks_per_chip"] = farm_blocks;
    report.spec["small"] = artifacts.small;

    // Latency side, prxy at 0.5K/2.5K: declared up front so the
    // journal's config fingerprints both sweeps.
    SweepSpec base_spec;
    base_spec.pecs = {500.0, 2500.0};
    base_spec.requests =
        artifacts.small ? std::uint64_t{10000} : defaultSimRequests();
    SweepSpec spec = base_spec;
    spec.schemes = {SchemeKind::Aero};
    spec.rberRequirements = requirements;
    Json journal_cfg = bench::farmJournalConfig(
        farm_chips, farm_blocks, FarmConfig{}.seed, artifacts.small);
    journal_cfg["rber_requirements"] = bench::jsonArray(requirements);
    journal_cfg["latency_baseline_spec"] = configOf(base_spec);
    journal_cfg["latency_aero_spec"] = configOf(spec);

    const auto [lifetimes, base_results, results] = runCampaign(
        artifacts.campaign, "fig17_rber_requirement",
        std::move(journal_cfg), [&](const CampaignScope &scope) {
            auto lifetimes = parallelMapJournaled(
                scope.journal, requirements,
                [&](std::size_t, int req) {
                    Json key = scope.base();
                    key["stage"] = "lifetime";
                    key["rber_requirement"] = req;
                    return key;
                },
                [&](int req) {
                    LifetimeConfig cfg;
                    cfg.farm.numChips = farm_chips;
                    cfg.farm.blocksPerChip = farm_blocks;
                    cfg.schemeOptions.rberRequirement = req;
                    LifetimeTester tester(cfg);
                    return bench::LifetimeRow{
                        tester.run(SchemeKind::Baseline),
                        tester.run(SchemeKind::AeroCons),
                        tester.run(SchemeKind::Aero)};
                });
            auto base = SweepRunner().run(
                base_spec, scope.with("stage", "latency-baseline"));
            auto aero = SweepRunner().run(
                spec, scope.with("stage", "latency-aero"));
            return std::make_tuple(std::move(lifetimes), std::move(base),
                                   std::move(aero));
        });

    std::printf("lifetime under each requirement (PEC)\n");
    bench::rule();
    std::printf("%5s | %9s | %10s | %10s | %12s\n", "req", "Baseline",
                "AERO-CONS", "AERO", "AERO vs CONS");
    for (std::size_t i = 0; i < requirements.size(); ++i) {
        const auto &row = lifetimes[i];
        const double gain =
            100.0 * (row.aero.lifetimePec - row.cons.lifetimePec) /
            row.cons.lifetimePec;
        std::printf("%5d | %9.0f | %10.0f | %10.0f | %+11.1f%%\n",
                    requirements[i], row.base.lifetimePec,
                    row.cons.lifetimePec, row.aero.lifetimePec, gain);
        Json j = Json::object();
        j["kind"] = "lifetime";
        j["rber_requirement"] = requirements[i];
        j["baseline_pec"] = row.base.lifetimePec;
        j["aero_cons_pec"] = row.cons.lifetimePec;
        j["aero_pec"] = row.aero.lifetimePec;
        j["aero_vs_cons_frac"] =
            (row.aero.lifetimePec - row.cons.lifetimePec) /
            row.cons.lifetimePec;
        report.addRow(std::move(j));
    }
    bench::rule();

    report.spec["requests"] = spec.requests;

    std::printf("\nAERO read-tail latency vs requirement (prxy, "
                "normalized to Baseline at same requirement)\n");
    bench::rule();
    std::printf("%5s | %6s | %10s | %10s\n", "req", "PEC", "p99.99",
                "p99.9999");
    for (std::size_t ri = 0; ri < requirements.size(); ++ri) {
        for (std::size_t pi = 0; pi < spec.pecs.size(); ++pi) {
            const auto &base =
                base_results[base_spec.index({{Axis::Pec, pi}})];
            const auto &aero = results[spec.index(
                {{Axis::Pec, pi}, {Axis::RberRequirement, ri}})];
            std::printf("%5d | %6.0f | %10.2f | %10.2f\n",
                        requirements[ri], spec.pecs[pi],
                        aero.p9999Us / base.p9999Us,
                        aero.p999999Us / base.p999999Us);
            Json j = Json::object();
            j["kind"] = "latency";
            j["rber_requirement"] = requirements[ri];
            j["pec"] = spec.pecs[pi];
            j["p9999_vs_baseline"] = aero.p9999Us / base.p9999Us;
            j["p999999_vs_baseline"] = aero.p999999Us / base.p999999Us;
            report.addRow(std::move(j));
        }
    }
    bench::rule();
    bench::note("paper: weaker ECC shrinks but does not erase AERO's "
                "advantage (+14% over CONS at 40 bits)");
    artifacts.writeDevchar(report);
    return 0;
}
