/**
 * @file
 * aero_diff: compare two experiment report files (`aero-sweep/1` /
 * `aero-devchar/1` JSON artifacts, or two CSV artifacts) — or two
 * *directories* of such files — and fail when any metric drifts beyond
 * tolerance: the CLI face of the regression gate.
 *
 *   aero_diff golden.json regenerated.json \
 *       [--rel-tol X] [--abs-tol X] [--ignore KEY]... [--max-rows N]
 *   aero_diff golden.csv regenerated.csv --rel-tol X
 *   aero_diff tests/golden regenerated-dir --rel-tol X
 *
 * A file ending in `.csv` is parsed as a CSV artifact and lifted into
 * report shape (integers exact, numbers toleranced, rows axis-keyed
 * when the sweep axis columns are present); both files must then be
 * CSV for the schemas to agree.
 *
 * When both arguments are directories, every `*.json` / `*.csv` file
 * (recursively) is paired with the same-named file on the other side
 * and diffed; unpaired files are reported and count as a difference.
 * One invocation thus gates a whole tree of baselines.
 *
 * Exit codes: 0 reports match, 1 reports differ (a per-metric delta
 * table is printed per file), 2 usage / I/O / JSON or CSV parse error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/parse.hh"
#include "exp/diff.hh"

namespace
{

constexpr int kExitMatch = 0;
constexpr int kExitDiffer = 1;
constexpr int kExitError = 2;

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <a.json|a.csv|dirA> <b.json|b.csv|dirB> [options]\n"
        "  --rel-tol X    relative tolerance for floating-point metrics\n"
        "  --abs-tol X    absolute tolerance for floating-point metrics\n"
        "  --ignore KEY   skip this key everywhere (repeatable)\n"
        "  --max-rows N   print at most N delta rows (default 50, 0=all)\n"
        "two directories diff every *.json/*.csv file pair by name\n"
        "exit status: 0 match, 1 differ, 2 error\n",
        argv0);
}

bool
isCsvPath(const char *path)
{
    const std::string p = path;
    return p.size() >= 4 && p.compare(p.size() - 4, 4, ".csv") == 0;
}

/** Read + parse one report, exiting with kExitError on any failure. */
aero::Json
loadReport(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "aero_diff: cannot open '%s'\n", path);
        std::exit(kExitError);
    }
    std::ostringstream content;
    content << in.rdbuf();
    if (in.bad()) {
        std::fprintf(stderr, "aero_diff: failed reading '%s'\n", path);
        std::exit(kExitError);
    }
    if (isCsvPath(path)) {
        aero::Json doc;
        std::string error;
        if (!aero::csvToReport(content.str(), &doc, &error)) {
            std::fprintf(stderr, "aero_diff: %s: %s\n", path,
                         error.c_str());
            std::exit(kExitError);
        }
        return doc;
    }
    aero::Json doc;
    aero::Json::ParseError err;
    if (!aero::Json::parse(content.str(), &doc, &err)) {
        std::fprintf(stderr, "aero_diff: %s: %s\n", path,
                     err.toString().c_str());
        std::exit(kExitError);
    }
    return doc;
}

double
parseDouble(const char *flag, const char *value, const char *argv0)
{
    char *end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || v < 0.0) {
        std::fprintf(stderr,
                     "aero_diff: %s needs a non-negative number, "
                     "got '%s'\n", flag, value);
        usage(argv0);
        std::exit(kExitError);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *pathA = nullptr;
    const char *pathB = nullptr;
    aero::DiffOptions opts;
    std::size_t maxRows = 50;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "aero_diff: %s needs a value\n",
                             arg);
                usage(argv[0]);
                std::exit(kExitError);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--rel-tol") == 0) {
            opts.relTol = parseDouble(arg, value(), argv[0]);
        } else if (std::strcmp(arg, "--abs-tol") == 0) {
            opts.absTol = parseDouble(arg, value(), argv[0]);
        } else if (std::strcmp(arg, "--ignore") == 0) {
            opts.ignoreKeys.push_back(value());
        } else if (std::strcmp(arg, "--max-rows") == 0) {
            const char *v = value();
            const auto rows = aero::parseDecimal<std::size_t>(v);
            maxRows = rows.value_or(0);
            if (!rows) {
                std::fprintf(stderr,
                             "aero_diff: --max-rows needs a "
                             "non-negative integer, got '%s'\n", v);
                usage(argv[0]);
                return kExitError;
            }
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage(argv[0]);
            return kExitMatch;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "aero_diff: unknown option '%s'\n",
                         arg);
            usage(argv[0]);
            return kExitError;
        } else if (!pathA) {
            pathA = arg;
        } else if (!pathB) {
            pathB = arg;
        } else {
            std::fprintf(stderr, "aero_diff: too many file arguments\n");
            usage(argv[0]);
            return kExitError;
        }
    }
    if (!pathA || !pathB) {
        usage(argv[0]);
        return kExitError;
    }

    const bool dirA = std::filesystem::is_directory(pathA);
    const bool dirB = std::filesystem::is_directory(pathB);
    if (dirA != dirB) {
        std::fprintf(stderr,
                     "aero_diff: cannot compare a directory with a "
                     "file ('%s' vs '%s')\n", pathA, pathB);
        return kExitError;
    }
    if (dirA) {
        aero::DirDiffResult result;
        try {
            result = aero::diffReportDirs(pathA, pathB, opts);
        } catch (const std::filesystem::filesystem_error &e) {
            // An unreadable subdirectory mid-walk must be exit 2 with
            // a message, not an uncaught-exception abort.
            std::fprintf(stderr, "aero_diff: %s\n", e.what());
            return kExitError;
        }
        for (const auto &file : result.compared) {
            if (!file.loaded) {
                std::printf("aero_diff: %s: error: %s\n",
                            file.name.c_str(), file.error.c_str());
            } else if (file.diff.match) {
                std::printf("aero_diff: %s: match (%zu rows, %zu "
                            "metrics)\n", file.name.c_str(),
                            file.diff.rowsCompared,
                            file.diff.metricsCompared);
            } else {
                std::printf("aero_diff: %s: %zu delta(s) over %zu/%zu "
                            "rows\n", file.name.c_str(),
                            file.diff.deltas.size(), file.diff.rowsA,
                            file.diff.rowsB);
                std::fputs(file.diff.table(maxRows).c_str(), stdout);
            }
        }
        for (const auto &name : result.onlyA)
            std::printf("aero_diff: only in %s: %s\n", pathA,
                        name.c_str());
        for (const auto &name : result.onlyB)
            std::printf("aero_diff: only in %s: %s\n", pathB,
                        name.c_str());
        const std::size_t unpaired =
            result.onlyA.size() + result.onlyB.size();
        std::size_t errors = 0;
        for (const auto &file : result.compared)
            errors += file.loaded ? 0 : 1;
        std::printf("aero_diff: %zu file pair(s) compared, %zu "
                    "matched, %zu differing, %zu unpaired, %zu "
                    "error(s) (rel-tol %g, abs-tol %g)\n",
                    result.compared.size(), result.matched,
                    result.compared.size() - result.matched - errors,
                    unpaired, errors, opts.relTol, opts.absTol);
        return result.exitCode();
    }

    const aero::Json a = loadReport(pathA);
    const aero::Json b = loadReport(pathB);
    const aero::DiffResult result = aero::diffReports(a, b, opts);

    if (result.match) {
        std::printf("aero_diff: match (%zu rows, %zu metrics compared, "
                    "rel-tol %g, abs-tol %g)\n",
                    result.rowsCompared, result.metricsCompared,
                    opts.relTol, opts.absTol);
        return kExitMatch;
    }
    std::printf("aero_diff: %s and %s differ: %zu delta(s) over %zu/%zu "
                "rows (rel-tol %g, abs-tol %g)\n",
                pathA, pathB, result.deltas.size(), result.rowsA,
                result.rowsB, opts.relTol, opts.absTol);
    std::fputs(result.table(maxRows).c_str(), stdout);
    return kExitDiffer;
}
