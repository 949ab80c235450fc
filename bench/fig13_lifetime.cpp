/**
 * @file
 * Reproduces Fig. 13: average max-RBER vs P/E cycles for the five erase
 * schemes, and the lifetimes where each crosses the 63-bit requirement.
 * The five endurance runs are independent, so they fan out over
 * parallelMap; `--json` drops the lifetimes and the full RBER curves,
 * `--csv` the per-scheme summary rows.
 *
 * Paper reference: Baseline 5.3K; i-ISPE -25%; DPES +26%; AERO-CONS
 * +30%; AERO +43%. AERO starts high (M_RBER(0) = 46) but grows slowly.
 */

#include "bench_util.hh"
#include "devchar/lifetime.hh"
#include "exp/sweep.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Figure 13: SSD lifetime and reliability comparison");
    LifetimeConfig cfg;
    cfg.farm.numChips = artifacts.small ? 6 : 16;
    cfg.farm.blocksPerChip = artifacts.small ? 10 : 24;
    cfg.checkpointEvery = 250;
    Json journal_cfg = bench::farmJournalConfig(
        cfg.farm.numChips, cfg.farm.blocksPerChip, cfg.farm.seed,
        artifacts.small);
    journal_cfg["checkpoint_every"] = cfg.checkpointEvery;
    journal_cfg["max_pec"] = cfg.maxPec;
    const LifetimeTester tester(cfg);
    // Parallel across schemes; one journal record per finished scheme.
    const auto results = runCampaign(
        artifacts.campaign, "fig13_lifetime", std::move(journal_cfg),
        [&](const CampaignScope &scope) { return tester.runAll(scope); });

    const double base_life = results.front().lifetimePec;
    bench::rule();
    std::printf("%-10s | %9s | %8s | %10s | %9s | %8s\n", "scheme",
                "lifetime", "vs base", "fresh RBER", "avg tBERS",
                "avgLoops");
    bench::rule();
    const double paper_delta[] = {0.0, -25.0, 26.0, 30.0, 43.0};
    int idx = 0;
    for (const auto &r : results) {
        std::printf("%-10s | %9.0f | %+7.1f%% | %10.1f | %7.2fms | %8.2f"
                    "   (paper: %+.0f%%)\n",
                    schemeKindName(r.scheme), r.lifetimePec,
                    100.0 * (r.lifetimePec - base_life) / base_life,
                    r.freshMrber, r.avgEraseLatencyMs, r.avgLoops,
                    paper_delta[idx++]);
    }
    bench::rule();

    std::printf("\naverage M_RBER vs PEC (the figure's curves)\n");
    std::printf("%6s", "PEC");
    for (const auto &r : results)
        std::printf(" | %9s", schemeKindName(r.scheme));
    std::printf("\n");
    for (std::size_t i = 3; i < results[4].curve.size(); i += 4) {
        const double pec = results[4].curve[i].first;
        std::printf("%6.0f", pec);
        for (const auto &r : results) {
            if (i < r.curve.size())
                std::printf(" | %9.1f", r.curve[i].second);
            else
                std::printf(" | %9s", "eol");
        }
        std::printf("\n");
    }
    bench::note("requirement = 63 raw bit errors per 1 KiB");

    if (artifacts.wantJson()) {
        Json doc = Json::object();
        doc["schema"] = "aero-fig13/1";
        Json axes = Json::array();
        axes.push("scheme");
        doc["axes"] = std::move(axes);
        Json spec = Json::object();
        spec["num_chips"] = cfg.farm.numChips;
        spec["blocks_per_chip"] = cfg.farm.blocksPerChip;
        spec["small"] = artifacts.small;
        doc["spec"] = std::move(spec);
        doc["rber_requirement"] =
            static_cast<double>(cfg.schemeOptions.rberRequirement);
        Json rows = Json::array();
        for (const auto &r : results) {
            Json row = Json::object();
            row["scheme"] = schemeKindName(r.scheme);
            row["lifetime_pec"] = r.lifetimePec;
            row["crossed"] = r.crossed;
            row["fresh_mrber"] = r.freshMrber;
            row["avg_erase_ms"] = r.avgEraseLatencyMs;
            row["avg_loops"] = r.avgLoops;
            Json curve = Json::array();
            for (const auto &[pec, mrber] : r.curve) {
                Json pt = Json::array();
                pt.push(pec);
                pt.push(mrber);
                curve.push(std::move(pt));
            }
            row["curve"] = std::move(curve);
            rows.push(std::move(row));
        }
        doc["results"] = std::move(rows);
        artifacts.writeJson(doc);
    }
    if (artifacts.wantCsv()) {
        std::string csv = "scheme,lifetime_pec,crossed,fresh_mrber,"
                          "avg_erase_ms,avg_loops\n";
        for (const auto &r : results) {
            csv += schemeKindName(r.scheme);
            csv += ',' + std::to_string(r.lifetimePec);
            csv += r.crossed ? ",1" : ",0";
            csv += ',' + std::to_string(r.freshMrber);
            csv += ',' + std::to_string(r.avgEraseLatencyMs);
            csv += ',' + std::to_string(r.avgLoops) + '\n';
        }
        writeTextFile(artifacts.csvPath, csv);
    }
    return 0;
}
