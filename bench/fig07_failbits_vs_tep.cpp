/**
 * @file
 * Reproduces Fig. 7: the fail-bit count as a function of accumulated tEP
 * in the final erase loop, for N_ISPE = 2..5. The paper's observations:
 * F decreases almost linearly with slope delta (~5000) per 0.5 ms, and
 * settles at a consistent floor gamma (<< delta) when 0.5 ms remains.
 * Chip-sharded across the sweep thread pool; `--json`/`--csv` drop an
 * `aero-devchar/1` artifact, `--small` runs the regression-gate config.
 */

#include "bench_util.hh"
#include "devchar/experiments.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Figure 7: fail-bit count vs accumulated tEP");
    FarmConfig fc;
    fc.numChips = artifacts.small ? 8 : 24;
    fc.blocksPerChip = artifacts.small ? 10 : 24;
    const std::vector<double> pecs = {1500, 2500, 3500, 4500};
    const Json farm = bench::farmJournalConfig(
        fc.numChips, fc.blocksPerChip, fc.seed, artifacts.small);
    Json journal_cfg = farm;
    journal_cfg["pecs"] = bench::jsonArray(pecs);
    const auto data = runCampaign(
        artifacts.campaign, "fig07_failbits_vs_tep", std::move(journal_cfg),
        [&](const CampaignScope &scope) {
            return runFig7Experiment(fc, pecs, scope);
        });
    const auto p = ChipParams::tlc3d();
    std::printf("max F(N_ISPE) by remaining erase time "
                "(columns: slots of 0.5 ms still needed)\n");
    bench::rule();
    std::printf("%7s", "N_ISPE");
    for (int r = 7; r >= 1; --r)
        std::printf(" | %6.1fms", 0.5 * r);
    std::printf("\n");
    bench::rule();
    for (const auto &row : data.rows) {
        if (row.nIspe < 2 || row.nIspe > 5)
            continue;
        std::printf("%7d", row.nIspe);
        for (int r = 7; r >= 1; --r) {
            if (row.samples[r] > 0)
                std::printf(" | %8.0f", row.maxFailByRemaining[r]);
            else
                std::printf(" | %8s", "-");
        }
        std::printf("\n");
    }
    bench::rule();
    std::printf("estimated gamma = %.0f (model %.0f), "
                "delta = %.0f (model %.0f)\n",
                data.gammaEstimate, p.gamma, data.deltaEstimate, p.delta);
    bench::note("paper: F decreases by ~delta per 0.5 ms in all groups "
                "and floors at gamma << delta");

    bench::DevcharReport report("fig07_failbits_vs_tep",
                                {"n_ispe", "remaining_slots"});
    report.spec = farm;
    report.summary["gamma_estimate"] = data.gammaEstimate;
    report.summary["delta_estimate"] = data.deltaEstimate;
    report.summary["gamma_model"] = p.gamma;
    report.summary["delta_model"] = p.delta;
    for (const auto &row : data.rows) {
        for (int r = 1; r <= 7; ++r) {
            if (row.samples[r] == 0)
                continue;
            Json j = Json::object();
            j["n_ispe"] = row.nIspe;
            j["remaining_slots"] = r;
            j["max_fail"] = row.maxFailByRemaining[r];
            j["mean_fail"] = row.meanFailByRemaining[r];
            j["samples"] = row.samples[r];
            report.addRow(std::move(j));
        }
    }
    artifacts.writeDevchar(report);
    return 0;
}
