/**
 * @file
 * Reproduces Fig. 10: max RBER (1-yr retention) after complete vs
 * insufficient erasure, against the ECC capability (72) and RBER
 * requirement (63). The derived safety conditions are the paper's
 * [C1]: N_ISPE <= 3 and F(N-1) < delta, and [C2]: N = 4 and F(3) < gamma.
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
    bench::header("Figure 10: reliability margin vs erase status");
    FarmConfig fc;
    fc.numChips = artifacts.small ? 8 : 24;
    fc.blocksPerChip = artifacts.small ? 10 : 24;
    const Json farm = bench::farmJournalConfig(
        fc.numChips, fc.blocksPerChip, fc.seed, artifacts.small);
    const auto data = runCampaign(
        artifacts.campaign, "fig10_reliability_margin", farm,
        [&](const CampaignScope &scope) {
            return runFig10Experiment(fc, scope);
        });
    std::printf("ECC capability %d, RBER requirement %d (per 1 KiB)\n",
                data.eccCapability, data.rberRequirement);

    std::printf("\n(a) completely erased blocks\n");
    bench::rule();
    std::printf("%7s | %9s | %8s | %8s\n", "N_ISPE", "max MRBER",
                "margin", "samples");
    for (const auto &row : data.complete) {
        std::printf("%7d | %9.1f | %8.1f | %8d\n", row.nIspe,
                    row.maxMrber, row.margin, row.samples);
    }
    bench::note("paper: margin up to 47 bits at N=1, shrinking with N");

    std::printf("\n(b) insufficiently erased blocks "
                "(final loop skipped)\n");
    bench::rule();
    std::printf("%7s | %6s | %9s | %5s | %8s\n", "N_ISPE", "range",
                "max MRBER", "safe", "samples");
    for (const auto &row : data.insufficient) {
        if (row.samples < 3)
            continue;
        std::printf("%7d | %6s | %9.1f | %5s | %8d\n", row.nIspe,
                    Ept::rangeLabel(row.range).c_str(), row.maxMrber,
                    row.safe ? "yes" : "NO", row.samples);
    }
    bench::rule();
    bench::note("paper conditions: [C1] N<=3 & F<d safe; "
                "[C2] N=4 & F<g safe; nothing at N=5");

    bench::DevcharReport report("fig10_reliability_margin",
                                {"kind", "n_ispe", "range"});
    report.spec = farm;
    report.summary["ecc_capability"] = data.eccCapability;
    report.summary["rber_requirement"] = data.rberRequirement;
    for (const auto &row : data.complete) {
        Json j = Json::object();
        j["kind"] = "complete";
        j["n_ispe"] = row.nIspe;
        j["samples"] = row.samples;
        j["max_mrber"] = row.maxMrber;
        j["margin"] = row.margin;
        report.addRow(std::move(j));
    }
    for (const auto &row : data.insufficient) {
        Json j = Json::object();
        j["kind"] = "insufficient";
        j["n_ispe"] = row.nIspe;
        j["range"] = row.range;
        j["samples"] = row.samples;
        j["max_mrber"] = row.maxMrber;
        j["safe"] = row.safe;
        report.addRow(std::move(j));
    }
    artifacts.writeDevchar(report);
    return 0;
}
