/**
 * @file
 * Generic command-line sweep driver: declare any grid the paper's
 * evaluation uses straight from the shell, run it on all cores, and drop
 * machine-readable artifacts. Scheme and suspension names resolve through
 * the string-keyed registries, so this is also the round-trip demo for
 * schemeKindFromName().
 *
 *   run_sweep --workloads prxy,usr --schemes Baseline,AERO \
 *             --pecs 500,2500 --requests 20000 --seeds 7,1007 \
 *             --suspensions on --threads 8 --json out.json --csv out.csv
 *
 * Every flag is optional; the default is a single Baseline/prxy/0.5K
 * point. `--progress` prints per-point completion lines to stderr.
 * `--checkpoint DIR` journals each completed point into the journal
 * directory DIR and, on a rerun, resumes from it instead of restarting
 * the grid from zero; the final artifacts are bit-identical to an
 * uninterrupted run.
 *
 * Distributed campaigns (see exp/campaign.hh for the journal format):
 * `--workers N` forks N worker processes sharing `--checkpoint DIR`,
 * coordinating through file-locked claims; `--compact DIR` rewrites a
 * journal down to one deduplicated file and exits; `--status DIR`
 * prints claims and per-worker progress. Artifacts stay byte-identical
 * to a single-process clean run at any worker count.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "erase/scheme_registry.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"

using namespace aero;

namespace
{

double
parseDouble(const std::string &flag, const std::string &tok)
{
    char *end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end == nullptr || *end != '\0')
        AERO_FATAL(flag, ": '", tok, "' is not a number");
    return v;
}

std::uint64_t
parseU64(const std::string &flag, const std::string &tok)
{
    char *end = nullptr;
    const auto v = std::strtoull(tok.c_str(), &end, 10);
    if (tok.empty() || end == nullptr || *end != '\0' || tok[0] == '-')
        AERO_FATAL(flag, ": '", tok, "' is not a non-negative integer");
    return v;
}

int
parseInt(const std::string &flag, const std::string &tok)
{
    char *end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (tok.empty() || end == nullptr || *end != '\0')
        AERO_FATAL(flag, ": '", tok, "' is not an integer");
    return static_cast<int>(v);
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > start)
            out.push_back(csv.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --workloads a,b,..    Table-3 workload names (default prxy)\n"
        "  --schemes a,b,..      scheme names, or 'all' (default "
        "Baseline)\n"
        "  --pecs p1,p2,..       P/E-cycle points, or 'paper' (default "
        "500)\n"
        "  --suspensions m,..    none|mid-segment (aliases off|on), or "
        "'both'\n"
        "  --misrates r1,..      injected FELP misprediction rates\n"
        "  --rbers b1,..         RBER requirements [bits/1KiB]\n"
        "  --gc-policies a,b,..  GC victim policies (default greedy)\n"
        "  --wear-levels a,b,..  wear-leveling policies (default none)\n"
        "  --seeds s1,..         per-point trace seeds (default 7)\n"
        "  --requests n          requests per point (default "
        "AERO_SIM_REQUESTS)\n"
        "  --threads n           worker threads (default "
        "AERO_SWEEP_THREADS)\n"
        "  --json path           write the JSON report\n"
        "  --csv path            write the CSV rows\n"
        "  --checkpoint dir      journal completed points into this "
        "directory and resume from it\n"
        "  --campaign name       journal campaign name (default "
        "run_sweep)\n"
        "  --workers n           fork n worker processes sharing the "
        "checkpoint directory\n"
        "  --fsync               fsync every journal record (power-loss "
        "durability)\n"
        "  --compact dir         compact a journal directory and exit\n"
        "  --status path         print who holds claims and per-worker "
        "progress for a journal, then exit\n"
        "  --progress            per-point progress on stderr\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    SweepBuilder builder;
    builder.requests(defaultSimRequests());
    int threads = 0;
    bool progress = false;
    bool fsync_records = false;
    int workers = 0;
    std::string json_path, csv_path, checkpoint_path, compact_path;
    std::string status_path;
    std::string campaign = "run_sweep";

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
        if (arg == "--fsync") {
            fsync_records = true;
            continue;
        }
        if (i + 1 >= argc)
            AERO_FATAL(arg, " needs a value (see --help)");
        const std::string value = argv[++i];
        if (arg == "--workloads") {
            builder.workloads(splitList(value));
        } else if (arg == "--schemes") {
            if (value == "all")
                builder.allSchemes();
            else
                builder.schemeNames(splitList(value));
        } else if (arg == "--pecs") {
            if (value == "paper") {
                builder.paperPecs();
            } else {
                std::vector<double> pecs;
                for (const auto &tok : splitList(value))
                    pecs.push_back(parseDouble(arg, tok));
                builder.pecs(pecs);
            }
        } else if (arg == "--suspensions") {
            if (value == "both") {
                builder.suspensions({SuspensionMode::None,
                                     SuspensionMode::MidSegment});
            } else {
                std::vector<SuspensionMode> modes;
                for (const auto &tok : splitList(value))
                    modes.push_back(suspensionModeFromName(tok));
                builder.suspensions(modes);
            }
        } else if (arg == "--misrates") {
            std::vector<double> rates;
            for (const auto &tok : splitList(value))
                rates.push_back(parseDouble(arg, tok));
            builder.mispredictionRates(rates);
        } else if (arg == "--rbers") {
            std::vector<int> bits;
            for (const auto &tok : splitList(value))
                bits.push_back(parseInt(arg, tok));
            builder.rberRequirements(bits);
        } else if (arg == "--gc-policies") {
            builder.gcPolicies(splitList(value));
        } else if (arg == "--wear-levels") {
            builder.wearLevels(splitList(value));
        } else if (arg == "--seeds") {
            std::vector<std::uint64_t> seeds;
            for (const auto &tok : splitList(value))
                seeds.push_back(parseU64(arg, tok));
            builder.seeds(seeds);
        } else if (arg == "--requests") {
            builder.requests(parseU64(arg, value));
        } else if (arg == "--threads") {
            threads = parseInt(arg, value);
        } else if (arg == "--json") {
            json_path = value;
        } else if (arg == "--csv") {
            csv_path = value;
        } else if (arg == "--checkpoint") {
            checkpoint_path = value;
        } else if (arg == "--campaign") {
            campaign = value;
        } else if (arg == "--compact") {
            compact_path = value;
        } else if (arg == "--status") {
            status_path = value;
        } else if (arg == "--workers") {
            workers = parseInt(arg, value);
            if (workers < 1 || workers > 256)
                AERO_FATAL("--workers: '", value,
                           "' is not a worker count in [1, 256]");
        } else {
            AERO_FATAL("unknown option '", arg, "' (see --help)");
        }
    }

    if (!status_path.empty()) {
        const CampaignStatus status = campaignStatus(status_path);
        std::fputs(formatCampaignStatus(status).c_str(), stdout);
        return 0;
    }
    if (!compact_path.empty()) {
        const CompactStats stats = compactCampaignJournal(compact_path);
        std::printf("compacted %s: %zu file(s), %zu record(s) in, "
                    "%zu out\n",
                    compact_path.c_str(), stats.files, stats.recordsIn,
                    stats.recordsOut);
        return 0;
    }
    if (workers > 1 && checkpoint_path.empty()) {
        AERO_FATAL("--workers needs --checkpoint: the processes "
                   "coordinate (and the artifact assembles) through the "
                   "journal");
    }

    const SweepSpec spec = builder.build();
    const SweepRunner runner(threads);
    std::printf("sweep: %zu points on %d threads\n", spec.size(),
                runner.threads());
    const auto onPoint =
        progress ? stderrProgress() : SweepRunner::Progress{};
    std::vector<SimResult> results;
    if (!checkpoint_path.empty()) {
        // Fork before opening the journal: each child opens its own
        // worker file (claims armed), the parent opens the merged
        // directory once every child has exited.
        JournalOptions options;
        options.worker = forkCampaignWorkers(workers);
        options.fsyncRecords = fsync_records;
        // Journal under this driver's bench-style name (--campaign, by
        // default "run_sweep") so the artifact self-identifies like a
        // BENCH_*.json (and cannot be spliced into another driver's
        // campaign by accident).
        CampaignJournal journal(checkpoint_path, campaign, configOf(spec),
                                options);
        if (!journal.claimsEnabled() && journal.cachedCount() > 0) {
            std::printf("checkpoint: resuming %zu/%zu points from %s\n",
                        journal.cachedCount(), spec.size(),
                        checkpoint_path.c_str());
        }
        results = runner.run(spec, &journal, onPoint);
        if (journal.claimsEnabled()) {
            // _Exit, not return: the child shares the parent's stdio
            // buffers, and flushing them here would duplicate output.
            // Artifact writing belongs to the parent's merged resume.
            std::_Exit(0);
        }
    } else {
        results = runner.run(spec, {}, onPoint);
    }

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
                    suspensionModeName(r.point.suspension), r.avgReadUs,
                    r.p9999Us, r.p999999Us);
    }
    return 0;
}
