/**
 * @file
 * The campaign journal: generic checkpoint/resume for any long-running
 * experiment campaign — system-level sweeps (Figs. 13-16, Tabs. 3-4),
 * chip-sharded device-characterization runs (Figs. 4, 7-11, 17, Tab. 1),
 * or anything else shaped as "many independent tasks, each producing one
 * record".
 *
 * A campaign runs in one process, in parallel on parallelMap()'s thread
 * pool (AERO_SWEEP_THREADS). On-disk format (`aero-campaign/2`): the
 * journal path is a *directory* holding one file, `journal.driver.jsonl`,
 * which the campaign's threads append to — one JSON document per line:
 *
 *   {"schema":"aero-campaign/2","campaign":"<name>",
 *    "fingerprint":"<hex>","worker":"driver","config":{..}}
 *   {"fingerprint":"<hex>","key":{..axes..},"payload":<any JSON>}
 *   ...
 *
 * The header pins the journal to one (campaign, configuration) pair via
 * a fingerprint over the campaign name and the canonical config JSON;
 * every record repeats the fingerprint so a record can never be spliced
 * into the wrong campaign. Records are keyed by an *axis object* (chip
 * index, scheme name, grid point, ...), not by position, so a journal
 * written under any thread count resumes correctly under any other. A
 * key journaled twice (only journal surgery does that) resolves
 * last-wins. Any other JSON-lines file in the directory — a per-worker
 * or compacted journal or the claims file, left by the removed
 * multi-process mode — is fatal, naming the file and leaving it
 * untouched.
 *
 * Crash tolerance and the durability contract:
 *
 *   - Each record is one write() followed by std::fflush(), so a torn
 *     write leaves at most one partial final line. On open, the loader
 *     parses each line with Json::parse and drops a malformed or
 *     unterminated *final* line (warning; the file is truncated back to
 *     its last good record before the next append). Corruption anywhere
 *     else is fatal, as is a journal path that names a regular file
 *     (never overwrite a file the caller pointed us at by mistake) and
 *     any campaign or fingerprint mismatch, naming the config field that
 *     differs.
 *   - fflush() hands the record to the kernel page cache: a flushed
 *     record survives process death of any kind (SIGKILL included)
 *     because the kernel owns the dirty page. It does NOT survive
 *     power loss or a host crash before the kernel writes the page
 *     back. AERO_JOURNAL_FSYNC=1 additionally fsync()s every record,
 *     extending "resumes from its last flushed task" to power loss at
 *     the cost of one device sync per task.
 *   - The journal file is held under an exclusive advisory flock() for
 *     as long as the journal is open, so a second live process on the
 *     same directory is refused instead of interleaving torn lines. The
 *     lock dies with its process: a SIGKILLed run never wedges the next
 *     resume.
 */

#ifndef AERO_EXP_CAMPAIGN_HH
#define AERO_EXP_CAMPAIGN_HH

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
#include "exp/record.hh"
#include "exp/sweep_impl.hh"

namespace aero
{

struct CampaignStatus;

class CampaignJournal
{
  public:
    /**
     * Open (or create) the journal directory at @p path for the
     * campaign named @p campaign with configuration @p config. A journal
     * already in the directory is validated (schema, campaign name,
     * fingerprint) and loaded; a journal written for a different
     * campaign or configuration is fatal with a message naming the
     * mismatch, as is a file left by the removed multi-process mode or
     * another live process holding the journal. The AERO_JOURNAL_FSYNC
     * environment variable ("1" or "0", default 0) selects whether every
     * record is fsync()ed after it is flushed (see the durability
     * contract in the file comment).
     */
    CampaignJournal(std::string path, std::string campaign, Json config);

    /**
     * Open the journal directory at @p path read-only, adopting the
     * campaign and configuration its header pins. Nothing is created,
     * truncated or locked, and a torn final line is skipped (it may be a
     * write still in flight). Fatal when @p path holds no journal.
     */
    explicit CampaignJournal(std::string path);

    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    const std::string &path() const { return journalPath; }

    /** Number of distinct keys already journaled. */
    std::size_t cachedCount() const;

    /** Was a record with this key already journaled? Thread-safe. */
    bool has(const Json &key) const;

    /**
     * The journaled payload for @p key (fatal when absent; check has()
     * first). Returns a copy so the reference cannot dangle while other
     * threads append. Thread-safe.
     */
    Json cached(const Json &key) const;

    /**
     * Append one completed task's record and flush it to disk.
     * Thread-safe: threads journal records in completion order, and the
     * key-addressed loader makes order irrelevant on resume.
     */
    void record(const Json &key, Json payload);

    /** Visit every cached (key, payload) pair, in journal order. */
    void forEachCached(
        const std::function<void(const Json &key, const Json &payload)>
            &fn) const;

    /** Records fsync'ed so far (durability-contract observability). */
    std::size_t recordSyncCount() const;

    /**
     * Fingerprint of a campaign: a hash over its name and its canonical
     * config JSON, rendered as hex.
     */
    static std::string fingerprint(const std::string &campaign,
                                   const Json &config);

  private:
    friend CampaignStatus campaignStatus(const std::string &path);

    void load(bool readOnly);
    void loadHeader(const Json &row, std::size_t lineNo);
    void openForAppend();
    void append(const Json &row);
    void insert(Json key, Json payload);

    std::string journalPath;
    std::string campaign;
    std::string fp;        //!< fingerprint of (campaign, config)
    Json configJson;       //!< canonical config (header payload)
    bool syncEachRecord = false;  //!< AERO_JOURNAL_FSYNC=1
    std::string filePath;  //!< the journal file inside journalPath
    /** (key, payload) in journal order; deque keeps entries stable. */
    std::deque<std::pair<Json, Json>> entries;
    std::unordered_map<std::string, std::size_t> indexByKey;
    std::size_t loadedRecords = 0;  //!< records read on open, duplicates too
    std::FILE *out = nullptr;
    std::size_t recordSyncs = 0;  //!< guarded by mutex
    mutable std::mutex mutex;
};

/**
 * A read-only snapshot of a campaign journal. Safe to take while the
 * campaign runs: a torn final line — a crash or a write in flight — is
 * skipped, not an error.
 */
struct CampaignStatus
{
    std::string path;
    std::string campaign;
    std::string fingerprint;
    std::size_t records = 0;      //!< total records, duplicates included
    std::size_t distinctKeys = 0; //!< deduplicated journaled tasks
};

/**
 * Inspect the journal directory at @p path without modifying it (see
 * the read-only CampaignJournal constructor for what is fatal).
 */
CampaignStatus campaignStatus(const std::string &path);

/** Render @p status as the human summary `run_sweep --status` prints. */
std::string formatCampaignStatus(const CampaignStatus &status);

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
 * journaled under `keyOf(index, item)` as its JSON column
 * (toColumn(), exp/record.hh), and items already journaled are decoded
 * from the journal instead of recomputed — so a killed campaign resumes
 * from its last flushed task. With a null journal this is exactly
 * parallelMap(). The result type is a declared record, or a vector of
 * them, whose decoding reproduces it exactly, so results are
 * byte-stable across kill/resume cycles and thread counts.
 */
template <typename Item, typename KeyFn, typename Fn>
auto
parallelMapJournaled(CampaignJournal *journal,
                     const std::vector<Item> &items, KeyFn keyOf, Fn fn,
                     int threads = 0)
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
                return fromColumn<Result>(journal->cached(key), "payload");
            Result r = fn(items[i]);
            journal->record(key, toColumn(r));
            return r;
        },
        threads);
}

/** The campaign flag every driver shares: `--checkpoint <dir>`. */
struct CampaignArgs
{
    /** Journal directory; empty runs the campaign unjournaled. */
    std::string checkpointPath;
};

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
 * the journal directory is opened (a `checkpoint: resuming` line is
 * printed when records are cached) and the body runs on its scope —
 * only uncached tasks are computed, so a killed campaign resumes from
 * its last flushed task at any thread count.
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
