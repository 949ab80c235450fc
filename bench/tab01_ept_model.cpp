/**
 * @file
 * Reproduces Table 1: the final mtEP(N_ISPE) model. Prints the canonical
 * table transcribed from the paper next to one derived from scratch by
 * the EptBuilder's m-ISPE characterization campaign on the virtual farm
 * (the paper's offline-profiling procedure). The campaign is
 * chip-sharded across the sweep thread pool; `--json`/`--csv` drop an
 * `aero-devchar/1` artifact, `--small` runs the regression-gate config.
 */

#include "bench_util.hh"
#include "core/ept_builder.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Table 1: erase-timing parameter table (EPT)");
    const auto params = ChipParams::tlc3d();

    std::printf("\ncanonical (transcribed from the paper):\n%s",
                Ept::canonical(params).toString(params).c_str());

    PopulationConfig pc;
    pc.numChips = artifacts.small ? 8 : 20;
    pc.geometry = ChipGeometry{1, 24, 16};
    pc.seed = 4242;
    ChipPopulation pop(pc);
    EptBuilderConfig bcfg;
    bcfg.blocksPerChip = artifacts.small ? 10 : 20;
    const Json farm = bench::farmJournalConfig(
        pc.numChips, bcfg.blocksPerChip, pc.seed, artifacts.small);
    Json journal_cfg = farm;
    journal_cfg["pec_points"] = bench::jsonArray(bcfg.pecPoints);
    EptBuilder builder(pop, bcfg);
    const Ept built = runCampaign(
        artifacts.campaign, "tab01_ept_model", std::move(journal_cfg),
        [&](const CampaignScope &scope) { return builder.build(scope); });
    std::printf("\nderived by m-ISPE characterization "
                "(%llu measurements):\n%s",
                static_cast<unsigned long long>(builder.measurements()),
                built.toString(params).c_str());

    const Ept canonical = Ept::canonical(params);
    int matches = 0, cells = 0;
    bench::DevcharReport report("tab01_ept_model", {"row", "range"});
    report.spec = farm;
    for (int row = 1; row <= Ept::kRows; ++row) {
        for (int rg = 0; rg < Ept::kRanges; ++rg) {
            cells += 1;
            matches += built.consSlots(row, rg) ==
                       canonical.consSlots(row, rg);
            Json j = Json::object();
            j["row"] = row;
            j["range"] = rg;
            j["range_label"] = Ept::rangeLabel(rg);
            j["cons_slots"] = built.consSlots(row, rg);
            j["aggr_slots"] = built.aggrSlots(row, rg);
            j["canonical_cons_slots"] = canonical.consSlots(row, rg);
            j["canonical_aggr_slots"] = canonical.aggrSlots(row, rg);
            j["cons_matches_canonical"] =
                built.consSlots(row, rg) == canonical.consSlots(row, rg);
            report.addRow(std::move(j));
        }
    }
    std::printf("\nconservative-column agreement with the canonical "
                "table: %d/%d cells\n", matches, cells);
    bench::note("storage cost: 35 entries x 4 B = 140 B (the paper's "
                "overhead argument)");
    report.summary["measurements"] =
        static_cast<std::uint64_t>(builder.measurements());
    report.summary["cons_agreement_cells"] = matches;
    report.summary["cells"] = cells;
    artifacts.writeDevchar(report);
    return 0;
}
