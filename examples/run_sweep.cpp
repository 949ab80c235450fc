/**
 * @file
 * Generic command-line sweep driver: declare any grid the paper's
 * evaluation uses straight from the shell, run it on all cores, and drop
 * machine-readable artifacts. Every sweep axis has a flag named after its
 * spec key (exp/sweep.hh's axis table): --workloads, --schemes, --pecs,
 * --suspensions, --misprediction-rates, --rber-requirements,
 * --gc-policies, --wear-levels and --seeds, each taking a comma list;
 * --help prints them with their presets and defaults.
 *
 *   run_sweep --workloads prxy,usr --schemes Baseline,AERO \
 *             --pecs 500,2500 --requests 20000 --seeds 7,1007 \
 *             --suspensions on --threads 8 --json out.json --csv out.csv
 *
 * Every flag is optional; the default is a single Baseline/prxy/0.5K
 * point. `--progress` prints per-point completion lines to stderr.
 * The points run in parallel on `--threads` threads of this one
 * process. `--checkpoint DIR` journals each completed point into the
 * journal directory DIR (see exp/campaign.hh for the format) and, on a
 * rerun, resumes from it instead of restarting the grid from zero; the
 * final artifacts are bit-identical to an uninterrupted run at any
 * thread count; the journal's campaign name is always `run_sweep`.
 * `--status DIR` prints a journal's campaign, fingerprint and record
 * counts without touching it.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "exp/campaign.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"

using namespace aero;

namespace
{

void
usage(const char *prog)
{
    // One flag per sweep axis, straight from the axis table.
    std::printf("usage: %s [options]\n"
                "  sweep axes (comma-separated values):\n",
                prog);
    for (const SweepAxis &axis : sweepAxes()) {
        std::string presets;
        for (const auto &preset : axis.presets)
            presets += ", or '" + preset + "'";
        std::printf("  %-21s %s%s (default %s)\n", axis.flag().c_str(),
                    axis.help.c_str(), presets.c_str(),
                    columnText(axis.defaultValue()).c_str());
    }
    std::printf(
        "  other options:\n"
        "  --requests n          requests per point (default "
        "AERO_SIM_REQUESTS)\n"
        "  --threads n           worker threads (default "
        "AERO_SWEEP_THREADS)\n"
        "  --json path           write the JSON report\n"
        "  --csv path            write the CSV rows\n"
        "  --checkpoint dir      journal completed points into this "
        "directory and resume from it\n"
        "  --status path         print a journal's campaign and record "
        "counts, then exit\n"
        "  --progress            per-point progress on stderr\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SweepSpec spec;
    spec.requests = defaultSimRequests();
    int threads = 0;
    bool progress = false;
    CampaignArgs campaign_args;
    std::string json_path, csv_path, status_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        }
        if (arg == "--progress") {
            progress = true;
            continue;
        }
        if (i + 1 >= argc)
            AERO_FATAL(arg, " needs a value (see --help)");
        const std::string value = argv[++i];
        const auto axis = std::find_if(
            sweepAxes().begin(), sweepAxes().end(),
            [&](const SweepAxis &a) { return a.flag() == arg; });
        if (axis != sweepAxes().end()) {
            axis->parse(value, spec);
        } else if (arg == "--requests") {
            spec.requests = parseDecimalOrDie<std::uint64_t>(arg, value);
        } else if (arg == "--threads") {
            threads = parseDecimalOrDie<int>(arg, value);
        } else if (arg == "--json") {
            checkArtifactPath(value);
            json_path = value;
        } else if (arg == "--csv") {
            checkArtifactPath(value);
            csv_path = value;
        } else if (arg == "--checkpoint") {
            campaign_args.checkpointPath = value;
        } else if (arg == "--status") {
            status_path = value;
        } else {
            AERO_FATAL("unknown option '", arg, "' (see --help)");
        }
    }
    if (!status_path.empty()) {
        const CampaignStatus status = campaignStatus(status_path);
        std::fputs(formatCampaignStatus(status).c_str(), stdout);
        return 0;
    }
    spec.validate();
    const SweepRunner runner(threads);
    std::printf("sweep: %zu points on %d threads\n", spec.size(),
                runner.threads());
    const auto onPoint =
        progress ? stderrProgress() : SweepRunner::Progress{};
    // Journal under this driver's bench-style name so the journal
    // cannot be spliced into another driver's campaign by accident.
    const auto results = runCampaign(
        campaign_args, "run_sweep", configOf(spec),
        [&](const CampaignScope &scope) {
            return runner.run(spec, scope, onPoint);
        });

    if (!json_path.empty())
        writeJsonFile(json_path, sweepReport(spec, results));
    if (!csv_path.empty())
        writeTextFile(csv_path, toCsv(results));

    std::printf("%-7s %-10s %7s %12s %9s %9s %10s\n", "wl", "scheme",
                "pec", "suspension", "avg[us]", "p99.99", "p99.9999");
    for (const auto &r : results) {
        std::printf("%-7s %-10s %7.0f %12s %9.1f %9.0f %10.0f\n",
                    r.point.workload.c_str(),
                    schemeKindName(r.point.scheme), r.point.pec,
                    enumName(r.point.suspension), r.avgReadUs,
                    r.p9999Us, r.p999999Us);
    }
    return 0;
}
