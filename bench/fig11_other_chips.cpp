/**
 * @file
 * Reproduces Fig. 11: the erase characteristics of the two additional
 * chip types (2D TLC and 3D MLC) -- gamma/delta consistency and the
 * reliability impact of insufficient erasure -- showing AERO's method
 * generalizes beyond the primary 3D TLC population.
 * The two chip types run as independent thread-pool tasks (and each
 * experiment is chip-sharded internally); `--json`/`--csv` drop an
 * `aero-devchar/1` artifact, `--small` runs the regression-gate config.
 */

#include "bench_util.hh"
#include "devchar/experiments.hh"
#include "exp/sweep.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Figure 11: erase characteristics of other chip types");
    const int farm_chips = artifacts.small ? 6 : 16;
    const int farm_blocks = artifacts.small ? 10 : 24;
    const std::uint64_t farm_seed = 0xfeed;
    const std::vector<ChipType> types = {ChipType::Tlc2d,
                                         ChipType::Mlc3d48L};
    const Json farm = bench::farmJournalConfig(farm_chips, farm_blocks,
                                               farm_seed, artifacts.small);
    Json journal_cfg = farm;
    Json journal_types = Json::array();
    for (const ChipType type : types)
        journal_types.push(chipTypeName(type));
    journal_cfg["chip_types"] = std::move(journal_types);
    const auto results = runCampaign(
        artifacts.campaign, "fig11_other_chips", std::move(journal_cfg),
        [&](const CampaignScope &scope) {
            return parallelMap(types, [&](ChipType type) {
                FarmConfig fc;
                fc.type = type;
                fc.numChips = farm_chips;
                fc.blocksPerChip = farm_blocks;
                fc.seed = farm_seed;
                return runFig11Experiment(
                    fc, scope.with("chip_type", chipTypeName(type)));
            });
        });

    bench::DevcharReport report("fig11_other_chips",
                                {"chip", "kind", "n_ispe", "range"});
    report.spec = farm;

    for (const auto &data : results) {
        const auto p = ChipParams::forType(data.type);
        std::printf("\n%s\n", chipTypeName(data.type));
        bench::rule();
        std::printf("(a) fail-bit constants: gamma %.0f (model %.0f), "
                    "delta %.0f (model %.0f)\n",
                    data.gammaEstimate, p.gamma, data.deltaEstimate,
                    p.delta);
        std::printf("(b) max MRBER after insufficient erasure:\n");
        std::printf("%7s | %6s | %9s | %5s | %8s\n", "N_ISPE", "range",
                    "max MRBER", "safe", "samples");
        for (const auto &row : data.reliability.insufficient) {
            if (row.samples < 3 || row.nIspe > 4 || row.range > 3)
                continue;
            std::printf("%7d | %6s | %9.1f | %5s | %8d\n", row.nIspe,
                        Ept::rangeLabel(row.range).c_str(),
                        row.maxMrber, row.safe ? "yes" : "NO",
                        row.samples);
        }

        Json consts = Json::object();
        consts["chip"] = chipTypeName(data.type);
        consts["kind"] = "constants";
        consts["gamma_estimate"] = data.gammaEstimate;
        consts["gamma_model"] = p.gamma;
        consts["delta_estimate"] = data.deltaEstimate;
        consts["delta_model"] = p.delta;
        report.addRow(std::move(consts));
        for (const auto &row : data.reliability.insufficient) {
            Json j = Json::object();
            j["chip"] = chipTypeName(data.type);
            j["kind"] = "insufficient";
            j["n_ispe"] = row.nIspe;
            j["range"] = row.range;
            j["samples"] = row.samples;
            j["max_mrber"] = row.maxMrber;
            j["safe"] = row.safe;
            report.addRow(std::move(j));
        }
    }
    bench::rule();
    bench::note("paper: gamma/delta consistent within each chip type; "
                "insufficient-erasure safety trends mirror 3D TLC");
    artifacts.writeDevchar(report);
    return 0;
}
