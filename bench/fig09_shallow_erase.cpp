/**
 * @file
 * Reproduces Fig. 9: the F(0) distribution after shallow erasure for
 * tSE in {0.5, 1, 1.5, 2} ms at 0.1K and 0.5K PEC, plus the fraction of
 * blocks that complete faster than the default tEP and the average
 * tBERS. The paper picks tSE = 1 ms (85% of blocks benefit, avg
 * latency ~2.6-2.9 ms).
 * Each (PEC, tSE) cell runs on its own farm, cell-per-task across the
 * sweep thread pool; `--json`/`--csv` drop an `aero-devchar/1`
 * artifact, `--small` runs the regression-gate config.
 */

#include "bench_util.hh"
#include "devchar/experiments.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Figure 9: fail-bit distribution under varying tSE");
    FarmConfig fc;
    fc.numChips = artifacts.small ? 6 : 24;
    fc.blocksPerChip = artifacts.small ? 10 : 30;
    const std::vector<int> tse_slots = {1, 2, 3, 4};
    const std::vector<double> pecs = {100, 500};
    const Json farm = bench::farmJournalConfig(
        fc.numChips, fc.blocksPerChip, fc.seed, artifacts.small);
    Json journal_cfg = farm;
    journal_cfg["tse_slots"] = bench::jsonArray(tse_slots);
    journal_cfg["pecs"] = bench::jsonArray(pecs);
    const auto data = runCampaign(
        artifacts.campaign, "fig09_shallow_erase", std::move(journal_cfg),
        [&](const CampaignScope &scope) {
            return runFig9Experiment(fc, tse_slots, pecs, scope);
        });
    bench::rule();
    std::printf("%6s | %5s | F(0) range occupancy [%%]%18s| %8s | %8s\n",
                "PEC", "tSE", "", "benefit", "tBERS");
    std::printf("%6s | %5s |", "", "[ms]");
    for (int rg = 0; rg <= 6; ++rg)
        std::printf(" %5s", Ept::rangeLabel(rg).c_str());
    std::printf(" | %8s | %8s\n", "[%]", "[ms]");
    bench::rule();
    for (const auto &cell : data.cells) {
        std::printf("%6.0f | %5.1f |", cell.pec, 0.5 * cell.tseSlots);
        for (int rg = 0; rg <= 6; ++rg)
            std::printf(" %5.1f", 100.0 * cell.rangeFraction[rg]);
        std::printf(" | %7.1f%% | %8.2f\n",
                    100.0 * cell.benefitFraction, cell.avgTbersMs);
    }
    bench::rule();
    bench::note("paper: <80,85,86,88>% benefit for tSE=<0.5,1,1.5,2>ms; "
                "avg tBERS 2.9 ms at 0.1K, 2.5-2.7 ms at 0.5K");

    bench::DevcharReport report("fig09_shallow_erase",
                                {"pec", "tse_slots"});
    report.spec = farm;
    for (const auto &cell : data.cells) {
        Json j = Json::object();
        j["pec"] = cell.pec;
        j["tse_slots"] = cell.tseSlots;
        j["samples"] = cell.samples;
        for (std::size_t rg = 0; rg < cell.rangeFraction.size(); ++rg)
            j[detail::concat("range_", rg, "_frac")] =
                cell.rangeFraction[rg];
        j["benefit_frac"] = cell.benefitFraction;
        j["avg_tbers_ms"] = cell.avgTbersMs;
        report.addRow(std::move(j));
    }
    artifacts.writeDevchar(report);
    return 0;
}
