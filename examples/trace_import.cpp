/**
 * @file
 * Convert an MSR-Cambridge-style CSV block trace into the simulator's
 * `aero-trace/1` binary format:
 *
 *   trace_import <in.csv> <out.trc> [--page-kb N] [--unit-ns N]
 *                [--tenant N] [--no-rebase]
 *
 * Input lines are `timestamp,hostname,diskno,type,offset,size[,...]`
 * (Windows filetime timestamps, byte offsets/sizes, Read/Write type).
 * Timestamps are rebased to zero and scaled to nanoseconds; byte ranges
 * become page spans (a request straddling a page boundary occupies both
 * pages). The import streams line-by-line, so CSVs of any size convert
 * in bounded memory. Malformed lines are fatal with their 1-based line
 * number.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "common/parse.hh"
#include "workload/trace_io/import.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    std::string in_path, out_path;
    MsrcImportOptions opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(arg, "--page-kb") == 0 && has_value) {
            opts.pageKB = parseDecimalOrDie<std::uint32_t>(arg, argv[++i]);
            if (opts.pageKB == 0)
                AERO_FATAL("--page-kb must be > 0");
        } else if (std::strcmp(arg, "--unit-ns") == 0 && has_value) {
            opts.timestampUnitNs =
                parseDecimalOrDie<std::uint64_t>(arg, argv[++i]);
            if (opts.timestampUnitNs == 0)
                AERO_FATAL("--unit-ns must be > 0");
        } else if (std::strcmp(arg, "--tenant") == 0 && has_value) {
            opts.tenant = parseDecimalOrDie<TenantId>(arg, argv[++i]);
        } else if (std::strcmp(arg, "--no-rebase") == 0) {
            opts.rebaseToZero = false;
        } else if (arg[0] == '-') {
            AERO_FATAL("unknown argument '", arg, "' (usage: ", argv[0],
                       " <in.csv> <out.trc> [--page-kb N] [--unit-ns N]"
                       " [--tenant N] [--no-rebase])");
        } else if (in_path.empty()) {
            in_path = arg;
        } else if (out_path.empty()) {
            out_path = arg;
        } else {
            AERO_FATAL("unexpected extra argument '", arg, "'");
        }
    }
    if (in_path.empty() || out_path.empty())
        AERO_FATAL("usage: ", argv[0],
                   " <in.csv> <out.trc> [--page-kb N] [--unit-ns N]"
                   " [--tenant N] [--no-rebase]");

    const ImportSummary s = importMsrcCsvFile(in_path, out_path, opts);
    std::printf("imported %llu records (%llu reads, %llu writes) from "
                "%s\n",
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.reads),
                static_cast<unsigned long long>(s.writes),
                in_path.c_str());
    std::printf("wrote %s: page size %u KB, span %.3f ms, max page "
                "%llu\n",
                out_path.c_str(), opts.pageKB,
                ticksToMs(s.lastArrival - s.firstArrival),
                static_cast<unsigned long long>(s.maxPage));
    return 0;
}
