/**
 * @file
 * Reproduces Fig. 4: CDF of the minimum erase latency (mtBERS) across
 * blocks at P/E cycle counts 0-5K, with the N_ISPE band annotations.
 * The underlying experiment is chip-sharded across the sweep thread
 * pool; `--json`/`--csv` drop an `aero-devchar/1` artifact and
 * `--small` runs the reduced regression-gate configuration.
 *
 * Paper reference points: all blocks single-loop at PEC 0 (>70% within
 * 2.5 ms); 76.5% single-loop at 1K; every block >= 2 loops at 2K; 40%
 * at N_ISPE = 3 at 3K; up to 5 loops at 5K; mtBERS std ~2.7 ms at 3.5K.
 */

#include <algorithm>

#include "bench_util.hh"
#include "devchar/experiments.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Figure 4: erase latency variation vs P/E cycles");
    FarmConfig fc;
    fc.numChips = artifacts.small ? 6 : 24;
    fc.blocksPerChip = artifacts.small ? 10 : 30;
    const std::vector<double> pecs = {0,    1000, 2000, 3000,
                                      3500, 4000, 5000};
    const Json farm = bench::farmJournalConfig(
        fc.numChips, fc.blocksPerChip, fc.seed, artifacts.small);
    Json journal_cfg = farm;
    journal_cfg["pecs"] = bench::jsonArray(pecs);
    const auto data = runCampaign(
        artifacts.campaign, "fig04_erase_latency_cdf",
        std::move(journal_cfg), [&](const CampaignScope &scope) {
            return runFig4Experiment(fc, pecs, scope);
        });
    std::printf("%zu blocks per curve (paper: 19200 across 160 chips)\n",
                static_cast<std::size_t>(data.blocksPerCurve));
    bench::rule();
    std::printf("%6s | %-28s | %9s | %7s | %7s\n", "PEC",
                "N_ISPE distribution [%]", "mean [ms]", "std[ms]",
                "<=2.5ms");
    bench::rule();
    for (const auto &c : data.curves) {
        std::string bands;
        for (const auto &[n, cnt] : c.nIspeCounts) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "N%d:%4.1f ", n,
                          100.0 * cnt / c.mtBersMs.size());
            bands += buf;
        }
        std::printf("%6.0f | %-28s | %9.2f | %7.2f | %6.1f%%\n", c.pec,
                    bands.c_str(), c.meanMtBersMs, c.stddevMtBersMs,
                    100.0 * c.fracWithin2_5Ms);
    }
    bench::rule();

    // CDF series (the figure's curves), on a 0.5-ms grid.
    std::printf("\nCDF of mtBERS [%% of blocks completely erased]\n");
    std::printf("%9s", "ms");
    for (const auto &c : data.curves)
        std::printf(" | PEC%5.0f", c.pec);
    std::printf("\n");
    for (double ms = 1.0; ms <= 18.0; ms += 1.0) {
        std::printf("%9.1f", ms);
        for (const auto &c : data.curves) {
            const auto n = static_cast<double>(c.mtBersMs.size());
            const auto below = std::count_if(
                c.mtBersMs.begin(), c.mtBersMs.end(),
                [ms](double v) { return v <= ms; });
            std::printf(" | %7.1f", 100.0 * below / n);
        }
        std::printf("\n");
    }
    bench::note("paper: single-loop fractions 100%/76.5% at PEC 0/1K; "
                "every block multi-loop at 2K");

    bench::DevcharReport report("fig04_erase_latency_cdf",
                                {"kind", "pec", "ms"});
    report.spec = farm;
    report.summary["blocks_per_curve"] = data.blocksPerCurve;
    for (const auto &c : data.curves) {
        Json row = Json::object();
        row["kind"] = "summary";
        row["pec"] = c.pec;
        row["mean_mtbers_ms"] = c.meanMtBersMs;
        row["stddev_mtbers_ms"] = c.stddevMtBersMs;
        row["within_2_5ms_frac"] = c.fracWithin2_5Ms;
        row["single_loop_frac"] = c.fracSingleLoop;
        for (const auto &[n, cnt] : c.nIspeCounts) {
            row[detail::concat("n_ispe_", n, "_count")] = cnt;
        }
        report.addRow(std::move(row));
        for (double ms = 1.0; ms <= 18.0; ms += 1.0) {
            const auto n = static_cast<double>(c.mtBersMs.size());
            const auto below = std::count_if(
                c.mtBersMs.begin(), c.mtBersMs.end(),
                [ms](double v) { return v <= ms; });
            Json cdf = Json::object();
            cdf["kind"] = "cdf";
            cdf["pec"] = c.pec;
            cdf["ms"] = ms;
            cdf["erased_frac"] = below / n;
            report.addRow(std::move(cdf));
        }
    }
    artifacts.writeDevchar(report);
    return 0;
}
