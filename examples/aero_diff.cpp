/**
 * @file
 * aero_diff: compare two JSON report files (`aero-sweep/1`,
 * `aero-devchar/1`, ...) and fail when any metric drifts beyond
 * tolerance: the CLI face of the regression gate.
 *
 *   aero_diff golden.json regenerated.json \
 *       [--rel-tol X] [--abs-tol X] [--ignore KEY]... [--max-rows N]
 *
 * Exit codes: 0 reports match, 1 reports differ (a per-metric delta
 * table is printed), 2 usage / I/O / JSON parse error.
 */

#include <cmath>
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
        "usage: %s <a.json> <b.json> [options]\n"
        "  --rel-tol X    relative tolerance for floating-point metrics\n"
        "  --abs-tol X    absolute tolerance for floating-point metrics\n"
        "  --ignore KEY   skip this key everywhere (repeatable)\n"
        "  --max-rows N   print at most N delta rows (default 50, 0=all)\n"
        "exit status: 0 match, 1 differ, 2 error\n",
        argv0);
}

/** Read + parse one report, exiting with kExitError on any failure. */
aero::Json
loadReport(const char *path)
{
    if (std::filesystem::is_directory(path)) {
        std::fprintf(stderr, "aero_diff: '%s' is a directory\n", path);
        std::exit(kExitError);
    }
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
    if (end == value || *end != '\0' || !std::isfinite(v) || v < 0.0) {
        std::fprintf(stderr,
                     "aero_diff: %s needs a finite non-negative "
                     "number, got '%s'\n", flag, value);
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
