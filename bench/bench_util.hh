/**
 * @file
 * Shared helpers for the figure/table reproduction binaries. Each bench
 * prints the rows/series of one table or figure of the paper, side by
 * side with the paper's reference numbers where applicable, and — via
 * Artifacts — drops a machine-readable JSON/CSV copy of the same numbers
 * when invoked with `--json <path>` and/or `--csv <path>`.
 */

#ifndef AERO_BENCH_BENCH_UTIL_HH
#define AERO_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/names.hh"
#include "exp/campaign.hh"
#include "exp/report.hh"

namespace aero::bench
{

inline void
header(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

inline void
rule()
{
    std::printf("%s\n", std::string(78, '-').c_str());
}

inline void
note(const std::string &text)
{
    std::printf("  [%s]\n", text.c_str());
}

/**
 * One devchar-shaped artifact under construction: the device-
 * characterization counterpart of the `aero-sweep/1` report, also
 * written under their own schema by the other benches that share its
 * shape (`aero-gc/1`, `aero-tenant/1`, `aero-kernel-bench/1`). The
 * document shape is
 *
 *   {"schema": "aero-devchar/1", "bench": .., "axes": [..],
 *    "spec": {..}, "results": [..], "summary": {..}}
 *
 * where `axes` names the row-identity keys `aero_diff` matches rows by,
 * `results` holds one flat object per printed table row, and the
 * optional `summary` holds axis-less scalars (gamma/delta estimates,
 * agreement counts, ...) compared with the same numeric tolerances as
 * row metrics.
 */
struct DevcharReport
{
    DevcharReport(std::string bench_name,
                  std::vector<std::string> axis_keys,
                  std::string schema_name = "aero-devchar/1")
        : schema(std::move(schema_name)), bench(std::move(bench_name)),
          axes(std::move(axis_keys))
    {
    }

    std::string schema;
    std::string bench;
    std::vector<std::string> axes;
    Json spec = Json::object();
    Json summary;  //!< stays null (and omitted) unless assigned
    Json results = Json::array();

    void addRow(Json row) { results.push(std::move(row)); }

    Json
    doc() const
    {
        Json d = Json::object();
        d["schema"] = schema;
        d["bench"] = bench;
        Json ax = Json::array();
        for (const auto &a : axes)
            ax.push(a);
        d["axes"] = std::move(ax);
        d["spec"] = spec;
        d["results"] = results;
        if (!summary.isNull())
            d["summary"] = summary;
        return d;
    }
};

/**
 * The journal-config base every farm-driven campaign shares. Benches
 * append their remaining knobs (PEC points, tSE slots, specs, ...) —
 * every knob that influences the numbers must land in the config, so
 * a resumed run can never splice stale records.
 */
inline Json
farmJournalConfig(int num_chips, int blocks_per_chip,
                  std::uint64_t seed, bool small)
{
    Json config = Json::object();
    config["num_chips"] = num_chips;
    config["blocks_per_chip"] = blocks_per_chip;
    config["seed"] = seed;
    config["small"] = small;
    return config;
}

/** A JSON array of scalar values (journal-config helper). */
template <typename T>
inline Json
jsonArray(const std::vector<T> &values)
{
    Json arr = Json::array();
    for (const T &v : values) {
        if constexpr (std::is_enum_v<T>)
            arr.push(enumName(v));
        else
            arr.push(v);
    }
    return arr;
}

/** One scalar cell of the CSV projection (RFC 4180 quoting). */
inline std::string
csvCell(const Json *v)
{
    if (!v || v->isNull())
        return "";
    if (!v->isString())
        return v->dump();
    const std::string &s = v->asString();
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string quoted = "\"";
    for (const char c : s) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

/**
 * Project an array of flat result objects to CSV: the header is the
 * union of row keys in first-appearance order; absent cells are empty.
 */
inline std::string
devcharCsv(const Json &results)
{
    std::vector<std::string> columns;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Json &row = results.at(i);
        for (std::size_t m = 0; m < row.size(); ++m) {
            const std::string &key = row.member(m).first;
            if (std::find(columns.begin(), columns.end(), key) ==
                columns.end())
                columns.push_back(key);
        }
    }
    std::string out;
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (c)
            out += ',';
        out += columns[c];
    }
    out += '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Json &row = results.at(i);
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (c)
                out += ',';
            out += csvCell(row.find(columns[c]));
        }
        out += '\n';
    }
    return out;
}

/** Where a bench should drop machine-readable copies of its output. */
struct Artifacts
{
    std::string jsonPath;
    std::string csvPath;
    /**
     * `--small`: run a reduced configuration sized for the golden-file
     * regression gate (seconds, stable numbers, compact artifacts)
     * instead of the paper-scale study.
     */
    bool small = false;
    /**
     * `--checkpoint <dir>`: where runCampaign() journals the bench's
     * campaign (see exp/campaign.hh). The resumed artifacts are
     * byte-identical to an uninterrupted run at any thread count.
     */
    CampaignArgs campaign;

    bool wantJson() const { return !jsonPath.empty(); }
    bool wantCsv() const { return !csvPath.empty(); }

    /** Write the standard sweep artifacts (whichever were requested). */
    void
    writeSweep(const SweepSpec &spec,
               const std::vector<SimResult> &results) const
    {
        if (wantJson())
            writeJsonFile(jsonPath, sweepReport(spec, results));
        if (wantCsv())
            writeTextFile(csvPath, toCsv(results));
    }

    /** Write a bench-specific JSON document (fig13, tab03, ...). */
    void
    writeJson(const Json &doc) const
    {
        if (wantJson())
            writeJsonFile(jsonPath, doc);
    }

    /** Write a devchar-shaped report (whichever formats requested). */
    void
    writeDevchar(const DevcharReport &report) const
    {
        if (wantJson())
            writeJsonFile(jsonPath, report.doc());
        if (wantCsv())
            writeTextFile(csvPath, devcharCsv(report.results));
    }
};

/**
 * The flags a bench accepts, each set a superset of the one before:
 * `--json <path>`/`--csv <path>`; plus `--small`; plus the campaign
 * flag `--checkpoint <dir>` of a bench that journals.
 */
enum class BenchFlags { Artifacts, Small, Campaign };

/**
 * Parse @p accepted's flags; fatal with the usage line on anything
 * else, so a bench that journals nothing rejects `--checkpoint` instead
 * of silently ignoring it. Each `--json`/`--csv` path is checked
 * writable before the bench does any work.
 */
inline Artifacts
parseArtifactArgs(int argc, char **argv,
                  BenchFlags accepted = BenchFlags::Campaign)
{
    const bool small_ok = accepted != BenchFlags::Artifacts;
    const bool campaign_ok = accepted == BenchFlags::Campaign;
    Artifacts out;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (small_ok && std::strcmp(arg, "--small") == 0) {
            out.small = true;
            continue;
        }
        std::string *dest = nullptr;
        if (std::strcmp(arg, "--json") == 0)
            dest = &out.jsonPath;
        else if (std::strcmp(arg, "--csv") == 0)
            dest = &out.csvPath;
        else if (campaign_ok && std::strcmp(arg, "--checkpoint") == 0)
            dest = &out.campaign.checkpointPath;
        else
            AERO_FATAL("unknown argument '", arg,
                       "' (usage: ", argv[0],
                       " [--json <path>] [--csv <path>]",
                       campaign_ok ? " [--checkpoint <path>]" : "",
                       small_ok ? " [--small]" : "", ")");
        if (i + 1 >= argc)
            AERO_FATAL(arg, " needs a file path");
        *dest = argv[++i];
    }
    for (const std::string *path : {&out.jsonPath, &out.csvPath}) {
        if (!path->empty())
            checkArtifactPath(*path);
    }
    return out;
}

} // namespace aero::bench

#endif // AERO_BENCH_BENCH_UTIL_HH
