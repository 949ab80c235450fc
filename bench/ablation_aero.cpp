/**
 * @file
 * Ablation study of AERO's three design ingredients (DESIGN.md calls for
 * this; the paper motivates each in section 4 but only evaluates the
 * CONS/full pair):
 *
 *   FELP only          - multi-loop prediction, no shallow probe, no
 *                        margin spending (AERO-CONS without shallow)
 *   + shallow erasure  - AERO-CONS as evaluated in the paper
 *   + ECC margin       - full AERO
 *
 * plus the multi-plane composition of section 6: how much of AERO's
 * latency benefit survives when 4 blocks erase in lock-step and the worst
 * block gates the operation. The per-(variant, PEC) cells are independent
 * and fan out over parallelMap; `--json` drops all the ratios and `--csv`
 * the single-plane cells.
 */

#include "bench_util.hh"
#include "core/aero_scheme.hh"
#include "erase/multi_plane.hh"
#include "exp/sweep.hh"
#include "nand/population.hh"

using namespace aero;

namespace
{

struct Variant
{
    const char *name;
    bool shallow;
    bool margin;
};

constexpr Variant kVariants[] = {
    {"FELP only", false, false},
    {"+ shallow erasure", true, false},
    {"+ ECC margin (AERO)", true, true},
};

constexpr double kPecs[] = {500.0, 2500.0};

struct SingleCell
{
    double latRatio = 0.0;
    double dmgRatio = 0.0;
};

SingleCell
runSingleCell(const Variant &v, double pec)
{
    NandChip base_chip(ChipParams::tlc3d(), ChipGeometry{1, 24, 8}, 99);
    NandChip aero_chip(ChipParams::tlc3d(), ChipGeometry{1, 24, 8}, 99);
    for (int b = 0; b < base_chip.numBlocks(); ++b) {
        base_chip.ageBaseline(b, static_cast<int>(pec));
        aero_chip.ageBaseline(b, static_cast<int>(pec));
    }
    const auto base =
        makeEraseScheme(SchemeKind::Baseline, base_chip, SchemeOptions{});
    SchemeOptions opts;
    opts.shallowErasure = v.shallow;
    AeroScheme aero(aero_chip, opts, v.margin,
                    Ept::canonical(aero_chip.params()));
    double lat_b = 0, lat_a = 0, dmg_b = 0, dmg_a = 0;
    for (int round = 0; round < 300; ++round) {
        for (int b = 0; b < base_chip.numBlocks(); ++b) {
            const auto ob = eraseNow(*base, static_cast<BlockId>(b));
            const auto oa = eraseNow(aero, static_cast<BlockId>(b));
            lat_b += ticksToMs(ob.latency);
            lat_a += ticksToMs(oa.latency);
            dmg_b += ob.damage;
            dmg_a += oa.damage;
        }
    }
    return SingleCell{lat_a / lat_b, dmg_a / dmg_b};
}

struct MultiRow
{
    std::string scheme;
    double jointMs = 0.0;
    double serialMs = 0.0;
    double damage = 0.0;
};

MultiRow
runMultiPlaneRow(SchemeKind kind)
{
    NandChip chip(ChipParams::tlc3d(), ChipGeometry{4, 16, 8}, 7);
    for (int b = 0; b < chip.numBlocks(); ++b)
        chip.ageBaseline(b, 2500);
    const auto scheme = makeEraseScheme(kind, chip, SchemeOptions{});
    MultiRow row;
    row.scheme = schemeKindName(kind);
    int ops = 0;
    for (int round = 0; round < 8; ++round) {
        for (int group = 0; group < 16; ++group) {
            std::vector<BlockId> blocks;
            for (int pl = 0; pl < 4; ++pl)
                blocks.push_back(static_cast<BlockId>(pl * 16 + group));
            const auto out = MultiPlaneErase::eraseNow(*scheme, blocks);
            row.jointMs += ticksToMs(out.latency);
            row.serialMs += ticksToMs(out.serialLatency);
            row.damage += out.totalDamage;
            ops += 1;
        }
    }
    row.jointMs /= ops;
    row.serialMs /= ops;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto artifacts =
        bench::parseArtifactArgs(argc, argv, bench::BenchFlags::Artifacts);
    bench::header("Ablation: AERO's ingredients and multi-plane erase");

    // Single-plane: every (variant, PEC) cell in parallel.
    struct Cell
    {
        std::size_t variant;
        std::size_t pec;
    };
    std::vector<Cell> cells;
    for (std::size_t vi = 0; vi < std::size(kVariants); ++vi)
        for (std::size_t pi = 0; pi < std::size(kPecs); ++pi)
            cells.push_back({vi, pi});
    const auto singles = parallelMap(cells, [](const Cell &c) {
        return runSingleCell(kVariants[c.variant], kPecs[c.pec]);
    });

    std::printf("per-erase latency / damage vs Baseline, 300 P/E cycles\n");
    bench::rule();
    std::printf("%-22s", "variant");
    for (const double pec : kPecs)
        std::printf(" | PEC %4.0f: lat    dmg", pec);
    std::printf("\n");
    bench::rule();
    for (std::size_t vi = 0; vi < std::size(kVariants); ++vi) {
        std::printf("%-22s", kVariants[vi].name);
        for (std::size_t pi = 0; pi < std::size(kPecs); ++pi) {
            const auto &cell = singles[vi * std::size(kPecs) + pi];
            std::printf(" | %12.2f %6.2f", cell.latRatio, cell.dmgRatio);
        }
        std::printf("\n");
    }
    bench::rule();

    // Multi-plane composition: one row per scheme, in parallel.
    const std::vector<SchemeKind> multi_schemes = {SchemeKind::Baseline,
                                                   SchemeKind::Aero};
    const auto multi = parallelMap(multi_schemes, runMultiPlaneRow);

    std::printf("\nmulti-plane composition (4 blocks in lock-step, "
                "PEC 2500)\n");
    bench::rule();
    std::printf("%-10s | %12s | %12s | %10s\n", "scheme",
                "joint [ms]", "serial [ms]", "dmg ratio");
    const double base_dmg = multi.front().damage;
    for (const auto &row : multi) {
        std::printf("%-10s | %12.2f | %12.2f | %10.2f\n",
                    row.scheme.c_str(), row.jointMs, row.serialMs,
                    base_dmg > 0 ? row.damage / base_dmg : 1.0);
    }
    bench::rule();
    bench::note("paper section 6: the worst block gates joint latency, "
                "but inhibition preserves AERO's full damage benefit");

    if (artifacts.wantJson()) {
        Json doc = Json::object();
        doc["schema"] = "aero-ablation/1";
        Json single = Json::array();
        for (std::size_t vi = 0; vi < std::size(kVariants); ++vi) {
            for (std::size_t pi = 0; pi < std::size(kPecs); ++pi) {
                const auto &cell = singles[vi * std::size(kPecs) + pi];
                Json row = Json::object();
                row["variant"] = kVariants[vi].name;
                row["pec"] = kPecs[pi];
                row["latency_ratio"] = cell.latRatio;
                row["damage_ratio"] = cell.dmgRatio;
                single.push(std::move(row));
            }
        }
        doc["single_plane"] = std::move(single);
        Json mp = Json::array();
        for (const auto &row : multi) {
            Json r = Json::object();
            r["scheme"] = row.scheme;
            r["joint_ms"] = row.jointMs;
            r["serial_ms"] = row.serialMs;
            r["damage_ratio"] =
                base_dmg > 0 ? row.damage / base_dmg : 1.0;
            mp.push(std::move(r));
        }
        doc["multi_plane"] = std::move(mp);
        artifacts.writeJson(doc);
    }
    if (artifacts.wantCsv()) {
        std::string csv = "variant,pec,latency_ratio,damage_ratio\n";
        for (std::size_t vi = 0; vi < std::size(kVariants); ++vi) {
            for (std::size_t pi = 0; pi < std::size(kPecs); ++pi) {
                const auto &cell = singles[vi * std::size(kPecs) + pi];
                csv += std::string(kVariants[vi].name);
                csv += ',' + std::to_string(kPecs[pi]);
                csv += ',' + std::to_string(cell.latRatio);
                csv += ',' + std::to_string(cell.dmgRatio) + '\n';
            }
        }
        writeTextFile(artifacts.csvPath, csv);
    }
    return 0;
}
