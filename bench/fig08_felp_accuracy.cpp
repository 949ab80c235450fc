/**
 * @file
 * Reproduces Fig. 8: the probability that a block needs mtEP(N_ISPE) = y
 * given that F(N_ISPE - 1) fell in fail-bit range x, plus the fraction of
 * blocks per range. The paper's headline: a majority (>= 66%) of blocks
 * in the same range need the same final-loop latency, making the fail-bit
 * count an accurate mtEP predictor.
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
    bench::header("Figure 8: mtEP(N_ISPE) probability by fail-bit range");
    FarmConfig fc;
    fc.numChips = artifacts.small ? 8 : 28;
    fc.blocksPerChip = artifacts.small ? 10 : 24;
    const std::vector<double> pecs = {2000, 2500, 3000, 3500,
                                      4000, 4500, 5200};
    const Json farm = bench::farmJournalConfig(
        fc.numChips, fc.blocksPerChip, fc.seed, artifacts.small);
    Json journal_cfg = farm;
    journal_cfg["pecs"] = bench::jsonArray(pecs);
    const auto data = runCampaign(
        artifacts.campaign, "fig08_felp_accuracy", std::move(journal_cfg),
        [&](const CampaignScope &scope) {
            return runFig8Experiment(fc, pecs, scope);
        });
    for (const auto &row : data.rows) {
        std::printf("\nN_ISPE = %d (%d samples)\n", row.nIspe,
                    row.samples);
        bench::rule();
        std::printf("%6s | %8s | %5s | P(mtEP = 0.5..3.5 ms)\n", "range",
                    "blocks%", "modal");
        for (int rg = 0; rg < 9; ++rg) {
            if (row.rangeFraction[rg] < 0.005)
                continue;
            std::printf("%6s | %7.1f%% | %4.0f%% |",
                        Ept::rangeLabel(rg).c_str(),
                        100.0 * row.rangeFraction[rg],
                        100.0 * row.modalProb[rg]);
            for (int s = 0; s < 7; ++s)
                std::printf(" %4.0f%%", 100.0 * row.mtepProb[rg][s]);
            std::printf("\n");
        }
    }
    bench::rule();
    bench::note("paper: majority (>=66%) of blocks per range share one "
                "mtEP; ranges are occupied fairly evenly");

    bench::DevcharReport report("fig08_felp_accuracy",
                                {"n_ispe", "range"});
    report.spec = farm;
    for (const auto &row : data.rows) {
        for (int rg = 0; rg < 9; ++rg) {
            Json j = Json::object();
            j["n_ispe"] = row.nIspe;
            j["range"] = rg;
            j["range_label"] = Ept::rangeLabel(rg);
            j["samples"] = row.samples;
            j["range_frac"] = row.rangeFraction[rg];
            j["modal_prob"] = row.modalProb[rg];
            for (int s = 0; s < 7; ++s)
                j[detail::concat("p_slots_", s + 1)] =
                    row.mtepProb[rg][s];
            report.addRow(std::move(j));
        }
    }
    artifacts.writeDevchar(report);
    return 0;
}
