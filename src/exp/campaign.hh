/**
 * @file
 * The campaign journal: generic checkpoint/resume for any long-running
 * experiment campaign — system-level sweeps (Figs. 13-16, Tabs. 3-4),
 * chip-sharded device-characterization runs (Figs. 4, 7-11, 17, Tab. 1),
 * or anything else shaped as "many independent tasks, each producing one
 * record".
 *
 * On-disk format (`aero-campaign/2`): the journal path is a *directory*.
 * Every process of the campaign appends to its own file inside it —
 * `journal.driver.jsonl` for the driver (a single-process run is just
 * this one file) and `journal.w<k>.jsonl` for forked worker k — one
 * JSON document per line:
 *
 *   {"schema":"aero-campaign/2","campaign":"<name>",
 *    "fingerprint":"<hex>","worker":"<id>","config":{..}}
 *   {"fingerprint":"<hex>","key":{..axes..},"payload":<any JSON>}
 *   ...
 *
 * Every reader merges all `journal.*.jsonl` files in sorted filename
 * order with duplicate-key *last-wins* semantics. Forked workers
 * coordinate in-flight tasks through `claims.jsonl`: before running a
 * task, a worker takes an advisory `flock()` on the claims file,
 * re-reads it, and appends a fsync'ed claim record
 * `{"key":..,"worker":..,"pid":..}` — a task claimed by another *live*
 * pid is skipped, a claim left by a dead pid is stale and silently
 * reaped. Because task payloads are deterministic functions of their
 * keys, a reaped-and-recomputed task produces an identical record and
 * last-wins merging keeps every reader byte-consistent.
 * `compactCampaignJournal()` rewrites a directory down to one
 * deduplicated `journal.compacted.jsonl` with a fresh header, so
 * journals do not grow without bound across resume cycles.
 *
 * The header pins the journal to one (campaign, configuration) pair via
 * a fingerprint over the campaign name and the canonical config JSON;
 * every record repeats the fingerprint so a record can never be spliced
 * into the wrong campaign. Records are keyed by an *axis object* (chip
 * index, scheme name, grid point, ...), not by position, so a journal
 * written under any thread count — or any worker count — resumes
 * correctly under any other.
 *
 * Crash tolerance and the durability contract:
 *
 *   - Each record is one write() followed by std::fflush(), so a torn
 *     write leaves at most one partial final line. On open, the loader
 *     parses each line with Json::parse and drops a malformed or
 *     unterminated *final* line (warning; the file this process appends
 *     to is truncated back to its last good record, other workers' files
 *     are merged read-only and never touched). Corruption anywhere else
 *     is fatal, as is a journal path that names a regular file (never
 *     overwrite a file the caller pointed us at by mistake) and any
 *     campaign or fingerprint mismatch, naming the config field that
 *     differs.
 *   - fflush() hands the record to the kernel page cache: a flushed
 *     record survives process death of any kind (SIGKILL included)
 *     because the kernel owns the dirty page. It does NOT survive
 *     power loss or a host crash before the kernel writes the page
 *     back. JournalOptions::fsyncRecords (or AERO_JOURNAL_FSYNC=1)
 *     additionally fsync()s every record, extending "resumes from its
 *     last flushed task" to power loss at the cost of one device sync
 *     per task.
 *   - Claim records are *always* fsync'ed regardless of fsyncRecords:
 *     a lost claim means two workers duplicating an expensive task,
 *     so claims buy durability unconditionally (they are tiny and
 *     written once per task).
 */

#ifndef AERO_EXP_CAMPAIGN_HH
#define AERO_EXP_CAMPAIGN_HH

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/json.hh"
#include "exp/sweep_impl.hh"

namespace aero
{

/** How a CampaignJournal is opened (see the file comment). */
struct JournalOptions
{
    /** The worker index of a campaign's driver process. */
    static constexpr int kDriver = -1;

    /**
     * Which process of the campaign this is. The driver (kDriver, the
     * default — also the only process of a single-process run) appends
     * to `journal.driver.jsonl` and never claims. Forked worker k >= 0
     * appends to `journal.w<k>.jsonl` and must win tryClaim() before
     * running a task, so concurrent workers never duplicate in-flight
     * work.
     */
    int worker = kDriver;

    /**
     * fsync() every journal record after flushing it (see the
     * durability contract in the file comment). Overridable either way
     * by the AERO_JOURNAL_FSYNC environment variable ("1" or "0").
     */
    bool fsyncRecords = false;
};

struct CampaignStatus;
struct CompactStats;

/** One journal file's contribution to a merged journal. */
struct CampaignWorkerStatus
{
    std::string file;    //!< file name (journal.w0.jsonl, ...)
    std::string worker;  //!< worker id from the header (w0, driver, ...)
    std::size_t records = 0;  //!< journaled records, duplicates included
};

class CampaignJournal
{
  public:
    /**
     * Open (or create) the journal directory at @p path for the
     * campaign named @p campaign with configuration @p config. Every
     * worker file already in the directory is validated (schema,
     * campaign name, fingerprint) and merged; a journal written for a
     * different campaign or configuration is fatal with a message
     * naming the mismatch. This process then appends to its own worker
     * file (refusing to start when another live process already holds
     * that file's lock).
     */
    CampaignJournal(std::string path, std::string campaign, Json config,
                    JournalOptions options = {});

    /**
     * Open the journal directory at @p path read-only, adopting the
     * campaign and configuration its headers pin. Nothing is created,
     * truncated or locked, and a torn final line in any file is skipped
     * (it may be a write still in flight). Fatal when @p path holds no
     * journal or its files disagree on the campaign fingerprint.
     */
    explicit CampaignJournal(std::string path);

    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    const std::string &path() const { return journalPath; }
    const std::string &campaignName() const { return campaign; }

    /** Are file-locked claim records in force (a forked worker)? */
    bool claimsEnabled() const { return options.worker >= 0; }

    /** Number of distinct keys already journaled. */
    std::size_t cachedCount() const;

    /** Was a record with this key already journaled? Thread-safe. */
    bool has(const Json &key) const;

    /**
     * The journaled payload for @p key (fatal when absent; check has()
     * first). Returns a copy so the reference cannot dangle while other
     * workers append. Thread-safe.
     */
    Json cached(const Json &key) const;

    /**
     * Append one completed task's record and flush it to disk.
     * Thread-safe: workers journal records in completion order, and the
     * key-addressed loader makes order irrelevant on resume.
     */
    void record(const Json &key, Json payload);

    /**
     * Claim @p key for this worker before running its task. Returns
     * true when this worker now owns the claim (including reclaiming
     * its own or a dead worker's stale claim) and false when another
     * live worker holds it — skip the task, that worker will journal
     * it. Always true for the driver. Thread-safe and cross-process
     * safe (exclusive flock on the claims file).
     */
    bool tryClaim(const Json &key);

    /** Visit every cached (key, payload) pair, in journal order. */
    void forEachCached(
        const std::function<void(const Json &key, const Json &payload)>
            &fn) const;

    /** Records fsync'ed so far (durability-contract observability). */
    std::size_t recordSyncCount() const;

    /** Claim records fsync'ed so far (claims are always synced). */
    std::size_t claimSyncCount() const;

    /**
     * Fingerprint of a campaign: a hash over its name and its canonical
     * config JSON, rendered as hex.
     */
    static std::string fingerprint(const std::string &campaign,
                                   const Json &config);

  private:
    friend CampaignStatus campaignStatus(const std::string &path);
    friend CompactStats compactCampaignJournal(const std::string &path);

    void load(bool readOnly);
    void loadHeader(const std::string &filePath, const Json &row,
                    std::size_t lineNo);
    void openForAppend(std::uint64_t keepBytes, bool writeHeader);
    void append(const Json &row);
    void insert(Json key, Json payload);
    std::string workerName() const;
    std::string claimsPath() const;

    std::string journalPath;
    std::string campaign;
    std::string fp;        //!< fingerprint of (campaign, config)
    Json configJson;       //!< canonical config (header payload)
    JournalOptions options;
    std::string appendPath;  //!< file this process appends to
    /** Files merged on open, in merge order; headerless ones skipped. */
    std::vector<CampaignWorkerStatus> loaded;
    /** (key, payload) in journal order; deque keeps entries stable. */
    std::deque<std::pair<Json, Json>> entries;
    std::unordered_map<std::string, std::size_t> indexByKey;
    std::FILE *out = nullptr;
    int claimsFd = -1;
    std::size_t recordSyncs = 0;  //!< guarded by mutex
    std::size_t claimSyncs = 0;   //!< guarded by claimsMutex
    mutable std::mutex mutex;
    mutable std::mutex claimsMutex;
};

/** What compactCampaignJournal() rewrote. */
struct CompactStats
{
    std::size_t files = 0;       //!< journal files merged
    std::size_t recordsIn = 0;   //!< records read (duplicates included)
    std::size_t recordsOut = 0;  //!< deduplicated records written
};

/** One claimed task's state in a CampaignStatus. */
struct CampaignClaimStatus
{
    Json key;            //!< the claimed task key
    std::string worker;  //!< claiming worker id (last claim wins)
    long long pid = 0;   //!< claiming pid
    bool live = false;   //!< the claiming pid still runs
    bool completed = false;  //!< a journal record exists for the key
};

/**
 * A read-only snapshot of a campaign journal: who holds claims and how
 * far each worker got. Safe to take while workers run (live claims are
 * reported as such); torn final lines — a crash or a write in flight —
 * are skipped, not errors.
 */
struct CampaignStatus
{
    std::string path;
    std::string campaign;
    std::string fingerprint;
    std::size_t records = 0;      //!< total records, duplicates included
    std::size_t distinctKeys = 0; //!< deduplicated journaled tasks
    std::vector<CampaignWorkerStatus> workers;  //!< file-name order
    std::vector<CampaignClaimStatus> claims;    //!< first-claim order
};

/**
 * Inspect the journal directory at @p path without modifying it (see
 * the read-only CampaignJournal constructor for what is fatal).
 */
CampaignStatus campaignStatus(const std::string &path);

/** Render @p status as the human summary `run_sweep --status` prints. */
std::string formatCampaignStatus(const CampaignStatus &status);

/**
 * Rewrite the journal directory at @p path down to a single
 * deduplicated `journal.compacted.jsonl` (worker id "compacted") with a
 * fresh header, adopting the campaign/config the journal's own headers
 * pin (no external knowledge needed). All other worker files and the
 * claims file are removed. Only compact a quiescent journal — no live
 * workers. Fatal on corruption or on files from mismatched campaigns.
 */
CompactStats compactCampaignJournal(const std::string &path);

/**
 * A journal handle plus a key prefix, cheap to pass down through the
 * stages of a multi-part campaign. An empty scope (null journal) turns
 * every journaled engine into its plain, uncheckpointed self, so
 * callers thread one scope through unconditionally.
 */
struct CampaignScope
{
    CampaignJournal *journal = nullptr;
    Json prefix = Json::object();

    CampaignScope() = default;
    CampaignScope(CampaignJournal *j) : journal(j) {}
    CampaignScope(CampaignJournal *j, Json p)
        : journal(j), prefix(std::move(p))
    {
    }

    explicit operator bool() const { return journal != nullptr; }

    /**
     * Is this a forked campaign worker's scope (claims armed)? Such a
     * worker folds only its claimed share of the campaign, so
     * aggregation invariants that assume full coverage must be relaxed
     * — the driver re-runs them on the merged journal with every
     * record cached.
     */
    bool
    partialShare() const
    {
        return journal != nullptr && journal->claimsEnabled();
    }

    /** This scope narrowed by one more key axis. */
    CampaignScope
    with(const std::string &axis, Json value) const
    {
        CampaignScope s(journal, prefix);
        s.prefix[axis] = std::move(value);
        return s;
    }

    /** A record key: the prefix axes (copy, ready for more members). */
    Json base() const { return prefix; }

    /** A record key: the prefix axes plus one final axis. */
    Json
    key(const std::string &axis, Json value) const
    {
        Json k = prefix;
        k[axis] = std::move(value);
        return k;
    }
};

/**
 * parallelMap() with a campaign journal: each item's result is
 * journaled under `keyOf(index, item)` as `encode(result)`, and items
 * already journaled are decoded from the journal instead of recomputed
 * — so a killed campaign resumes from its last flushed task. With a
 * null journal this is exactly parallelMap(). When the journal has
 * claims enabled (a forked campaign worker), each pending item is
 * claimed first; an item another live worker owns is *skipped* and its
 * slot left default-constructed — which is why runCampaign() exits a
 * forked worker after its body and leaves artifact assembly to the
 * driver, which reruns the body with every record cached. Results are
 * byte-stable across kill/resume cycles, thread counts, and worker
 * counts provided `decode(encode(x))` reproduces `x` exactly (every
 * codec in this repo round-trips doubles bit-for-bit through the JSON
 * serializer).
 */
template <typename Item, typename KeyFn, typename Fn, typename Enc,
          typename Dec>
auto
parallelMapJournaled(CampaignJournal *journal,
                     const std::vector<Item> &items, KeyFn keyOf, Fn fn,
                     Enc encode, Dec decode, int threads = 0)
    -> std::vector<std::decay_t<decltype(fn(items.front()))>>
{
    using Result = std::decay_t<decltype(fn(items.front()))>;
    std::vector<std::size_t> indices(items.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    return parallelMap(
        indices,
        [&](std::size_t i) -> Result {
            if (!journal)
                return fn(items[i]);
            const Json key = keyOf(i, items[i]);
            if (journal->has(key))
                return decode(journal->cached(key));
            if (!journal->tryClaim(key))
                return Result{};
            Result r = fn(items[i]);
            journal->record(key, encode(r));
            return r;
        },
        threads);
}

/**
 * The campaign flags every driver shares: `--checkpoint <dir>`,
 * `--workers <n>` and `run_sweep --fsync`.
 */
struct CampaignArgs
{
    /** Journal directory; empty runs the campaign unjournaled. */
    std::string checkpointPath;
    /** Forked worker processes; <= 1 runs single-process. */
    int workers = 0;
    /** JournalOptions::fsyncRecords. */
    bool fsyncRecords = false;
};

/** `--workers <n>`: a count in [1, 256] (fatal otherwise). */
int parseWorkerCount(const std::string &value);

namespace detail
{
/** The type-erased half of runCampaign(); call that instead. */
void runCampaign(const CampaignArgs &args, const std::string &name,
                 Json config,
                 const std::function<void(const CampaignScope &)> &body);
} // namespace detail

/**
 * Run one campaign named @p name, whose every knob is in @p config, and
 * return what @p body (a `CampaignScope -> Result` callable) returns.
 *
 * Without `--checkpoint` the body runs once on an empty scope. With it,
 * `--workers n` first forks n worker processes; each opens its own file
 * in the journal directory with claims armed, runs the body on its
 * claimed share and exits without returning (`_Exit`: the child shares
 * the driver's unflushed stdio buffers and must not write artifacts).
 * The driver waits for every worker, opens the merged directory, prints
 * a `checkpoint: resuming` line when records are cached, and runs the
 * body itself — only uncached tasks are computed, so a killed campaign
 * resumes from its last flushed task at any worker count. Fatal when
 * `--workers` exceeds 1 without `--checkpoint`.
 */
template <typename Body>
auto
runCampaign(const CampaignArgs &args, const std::string &name, Json config,
            Body body)
{
    std::optional<std::decay_t<decltype(body(CampaignScope{}))>> result;
    detail::runCampaign(args, name, std::move(config),
                        [&](const CampaignScope &scope) {
                            result.emplace(body(scope));
                        });
    return std::move(*result);
}

} // namespace aero

#endif // AERO_EXP_CAMPAIGN_HH
