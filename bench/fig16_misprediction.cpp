/**
 * @file
 * Reproduces Fig. 16: sensitivity of AERO's lifetime and read-tail
 * benefits to the FELP misprediction rate {0, 1, 5, 10, 20}%, where each
 * misprediction costs an extra 0.5-ms EP step (the paper's assumption).
 * The endurance runs fan out over parallelMap; the tail-latency side is
 * one SweepSpec over the misprediction axis. `--json` drops both halves.
 *
 * Paper reference: even at 20% misprediction AERO keeps ~42% lifetime
 * improvement and ~40% tail-latency reduction at 0.5K PEC.
 */

#include <tuple>

#include "bench_util.hh"
#include "devchar/lifetime.hh"
#include "exp/sweep.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Figure 16: impact of misprediction rate");
    // --small: the regression-gate config — three rates, a smaller
    // block farm, and a fixed request count for the tail-latency side.
    const std::vector<double> rates =
        artifacts.small ? std::vector<double>{0.0, 0.10, 0.20}
                        : std::vector<double>{0.0, 0.01, 0.05, 0.10, 0.20};

    // Lifetime side: one endurance run per (rate, scheme) plus the
    // Baseline reference, all independent, all in parallel.
    LifetimeConfig lc;
    lc.farm.numChips = artifacts.small ? 4 : 6;
    lc.farm.blocksPerChip = artifacts.small ? 6 : 12;
    struct LifetimeCase
    {
        double rate;
        SchemeKind scheme;
    };
    std::vector<LifetimeCase> cases = {{0.0, SchemeKind::Baseline}};
    for (const double rate : rates) {
        cases.push_back({rate, SchemeKind::AeroCons});
        cases.push_back({rate, SchemeKind::Aero});
    }

    // Declare the tail-latency grids up front so the journal's config
    // fingerprints every stage of the campaign (lifetime + two sweeps).
    SweepSpec base_spec;  // prxy at 0.5K PEC
    base_spec.requests = artifacts.small ? 2000 : defaultSimRequests();
    SweepSpec spec = base_spec;
    spec.schemes = {SchemeKind::Aero};
    spec.mispredictionRates = rates;
    Json journal_cfg = bench::farmJournalConfig(
        lc.farm.numChips, lc.farm.blocksPerChip, lc.farm.seed,
        artifacts.small);
    journal_cfg["misprediction_rates"] = bench::jsonArray(rates);
    journal_cfg["tail_baseline_spec"] = configOf(base_spec);
    journal_cfg["tail_aero_spec"] = configOf(spec);
    const auto [lifetimes, base_results, results] = runCampaign(
        artifacts.campaign, "fig16_misprediction", std::move(journal_cfg),
        [&](const CampaignScope &scope) {
            auto life = parallelMapJournaled(
                scope.journal, cases,
                [&](std::size_t, const LifetimeCase &c) {
                    Json key = scope.base();
                    key["stage"] = "lifetime";
                    key["scheme"] = schemeKindName(c.scheme);
                    key["misprediction_rate"] = c.rate;
                    return key;
                },
                [&](const LifetimeCase &c) {
                    LifetimeConfig cfg = lc;
                    cfg.schemeOptions.mispredictionRate = c.rate;
                    return LifetimeTester(cfg).run(c.scheme);
                });
            // Tail-latency side (0.5K PEC, prxy): one Baseline reference
            // point plus AERO across the misprediction axis (Baseline
            // ignores the misprediction knob, so sweeping it there would
            // waste 4 runs). Both sweeps share the bench journal,
            // namespaced by key prefixes.
            auto base = SweepRunner().run(
                base_spec, scope.with("stage", "tail-baseline"));
            auto aero =
                SweepRunner().run(spec, scope.with("stage", "tail-aero"));
            return std::make_tuple(std::move(life), std::move(base),
                                   std::move(aero));
        });

    const double base_life = lifetimes[0].lifetimePec;
    std::printf("lifetime improvement over Baseline (%0.0f PEC)\n",
                base_life);
    bench::rule();
    std::printf("%8s | %10s | %10s\n", "misrate", "AERO-CONS", "AERO");
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &cons = lifetimes[1 + 2 * i];
        const auto &aero = lifetimes[2 + 2 * i];
        std::printf("%7.0f%% | %+9.1f%% | %+9.1f%%\n", rates[i] * 100.0,
                    100.0 * (cons.lifetimePec - base_life) / base_life,
                    100.0 * (aero.lifetimePec - base_life) / base_life);
    }
    bench::rule();

    const auto &base = base_results.front();

    std::printf("\nread tail latency at 0.5K PEC (prxy), normalized to "
                "Baseline\n");
    bench::rule();
    std::printf("%8s | %10s | %10s\n", "misrate", "p99.99", "p99.9999");
    for (std::size_t mi = 0; mi < rates.size(); ++mi) {
        const auto &r =
            results[spec.index({{Axis::MispredictionRate, mi}})];
        std::printf("%7.0f%% | %10.2f | %10.2f\n", rates[mi] * 100.0,
                    r.p9999Us / base.p9999Us,
                    r.p999999Us / base.p999999Us);
    }
    bench::rule();
    bench::note("paper: benefits degrade by only a few percent even at "
                "a 20% misprediction rate");

    if (artifacts.wantJson()) {
        Json doc = Json::object();
        doc["schema"] = "aero-fig16/1";
        Json specDoc = Json::object();
        specDoc["num_chips"] = lc.farm.numChips;
        specDoc["blocks_per_chip"] = lc.farm.blocksPerChip;
        Json rateAxis = Json::array();
        for (const double r : rates)
            rateAxis.push(r);
        specDoc["misprediction_rates"] = std::move(rateAxis);
        specDoc["small"] = artifacts.small;
        doc["spec"] = std::move(specDoc);
        Json life = Json::array();
        for (std::size_t i = 0; i < cases.size(); ++i) {
            Json row = Json::object();
            row["scheme"] = schemeKindName(cases[i].scheme);
            row["misprediction_rate"] = cases[i].rate;
            row["lifetime_pec"] = lifetimes[i].lifetimePec;
            life.push(std::move(row));
        }
        doc["lifetime"] = std::move(life);
        doc["tail_latency_baseline"] = sweepReport(base_spec, base_results);
        doc["tail_latency_aero"] = sweepReport(spec, results);
        artifacts.writeJson(doc);
    }
    if (artifacts.wantCsv()) {
        auto rows = base_results;
        rows.insert(rows.end(), results.begin(), results.end());
        writeTextFile(artifacts.csvPath, toCsv(rows));
    }
    return 0;
}
