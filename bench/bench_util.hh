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
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
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
 * One `aero-devchar/1` artifact under construction: the device-
 * characterization counterpart of the `aero-sweep/1` report. The
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
                  std::vector<std::string> axis_keys)
        : bench(std::move(bench_name)), axes(std::move(axis_keys))
    {
    }

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
        d["schema"] = "aero-devchar/1";
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
    for (const T &v : values)
        arr.push(v);
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
     * `--checkpoint <dir>`: journal every completed campaign task into
     * this journal directory and, on a rerun, resume from it instead of
     * restarting from zero (see exp/campaign.hh). All sixteen gated
     * benches accept it; the resumed artifacts are byte-identical to an
     * uninterrupted run at any thread or worker count.
     */
    std::string checkpointPath;
    /**
     * `--small`: run a reduced configuration sized for the golden-file
     * regression gate (seconds, stable numbers, compact artifacts)
     * instead of the paper-scale study. Only the devchar benches accept
     * it.
     */
    bool small = false;
    /**
     * `--workers <n>`: fork n campaign worker processes sharing the
     * `--checkpoint` journal directory (requires `--checkpoint`; see
     * exp/campaign.hh). Zero means single-process.
     */
    int workers = 0;
    /** This process's worker index after forkWorkers(). */
    int workerIndex = JournalOptions::kDriver;

    bool wantJson() const { return !jsonPath.empty(); }
    bool wantCsv() const { return !csvPath.empty(); }
    bool wantCheckpoint() const { return !checkpointPath.empty(); }

    /**
     * Fork the `--workers` processes (no-op without the flag). Call
     * before openJournal(): each child then opens its own worker file
     * with claims armed, the parent waits for all children and opens
     * the merged directory. A forked worker must exitWorker() as soon
     * as its share of the campaign is journaled — artifact assembly
     * belongs to the parent, which resumes with every record cached.
     */
    void
    forkWorkers()
    {
        if (workers <= 1)
            return;
        if (!wantCheckpoint()) {
            AERO_FATAL("--workers needs --checkpoint <dir>: the worker "
                       "processes coordinate through the shared journal "
                       "directory");
        }
        workerIndex = forkCampaignWorkers(workers);
    }

    /** Is this process a forked campaign worker (not the driver)? */
    bool isWorker() const { return workerIndex >= 0; }

    /** A worker's exit point once its tasks are journaled. */
    [[noreturn]] void
    exitWorker() const
    {
        // _Exit, not exit(): the child shares the parent's stdio
        // buffers, and flushing them here would duplicate output.
        std::_Exit(0);
    }

    /**
     * Open this bench's campaign journal (null without `--checkpoint`).
     * @p bench pins the journal to this bench (resuming another
     * bench's journal fails loudly) and @p config fingerprints the
     * campaign configuration — every knob that influences the numbers
     * must be in it, so a resumed run can never splice stale records.
     *
     * A forked worker appends to `journal.w<i>.jsonl` with file-locked
     * claims armed; the driver merges every worker file and appends to
     * `journal.driver.jsonl` with claims off.
     */
    std::unique_ptr<CampaignJournal>
    openJournal(const std::string &bench, Json config) const
    {
        if (!wantCheckpoint())
            return nullptr;
        JournalOptions options;
        options.worker = workerIndex;
        auto journal = std::make_unique<CampaignJournal>(
            checkpointPath, bench, std::move(config), options);
        if (!isWorker() && journal->cachedCount() > 0) {
            std::printf("checkpoint: resuming %zu journaled task(s) "
                        "from %s\n",
                        journal->cachedCount(), checkpointPath.c_str());
        }
        return journal;
    }

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

    /** Write an `aero-devchar/1` report (whichever formats requested). */
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
 * Parse `--json <path>` / `--csv <path>` (plus `--small` when
 * @p allow_small, `--checkpoint <path>` when @p allow_checkpoint, and
 * `--workers <n>` when @p allow_workers); fatal on anything else, so a
 * bench that has not wired a journal rejects `--checkpoint` instead of
 * silently ignoring it.
 */
inline Artifacts
parseArtifactArgs(int argc, char **argv, bool allow_small = false,
                  bool allow_checkpoint = false,
                  bool allow_workers = false)
{
    Artifacts out;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (allow_small && std::strcmp(arg, "--small") == 0) {
            out.small = true;
            continue;
        }
        if (allow_workers && std::strcmp(arg, "--workers") == 0) {
            if (i + 1 >= argc)
                AERO_FATAL("--workers needs a count");
            out.workers = parseDecimal<int>(argv[++i]).value_or(0);
            if (out.workers < 1 || out.workers > 256)
                AERO_FATAL("--workers: '", argv[i],
                           "' is not a worker count in [1, 256]");
            continue;
        }
        std::string *dest = nullptr;
        if (std::strcmp(arg, "--json") == 0)
            dest = &out.jsonPath;
        else if (std::strcmp(arg, "--csv") == 0)
            dest = &out.csvPath;
        else if (allow_checkpoint &&
                 std::strcmp(arg, "--checkpoint") == 0)
            dest = &out.checkpointPath;
        else
            AERO_FATAL("unknown argument '", arg,
                       "' (usage: ", argv[0],
                       " [--json <path>] [--csv <path>]",
                       allow_checkpoint ? " [--checkpoint <path>]" : "",
                       allow_workers ? " [--workers <n>]" : "",
                       allow_small ? " [--small]" : "", ")");
        if (i + 1 >= argc)
            AERO_FATAL(arg, " needs a file path");
        *dest = argv[++i];
    }
    return out;
}

} // namespace aero::bench

#endif // AERO_BENCH_BENCH_UTIL_HH
