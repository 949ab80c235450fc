#include "exp/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef _WIN32
#include <csignal>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#endif

#include "common/logging.hh"
#include "common/parse.hh"

namespace aero
{

namespace
{

constexpr const char *kSchema = "aero-campaign/2";
constexpr const char *kSchemaClaims = "aero-claims/1";
constexpr const char *kClaimsFile = "claims.jsonl";
constexpr const char *kCompactedFile = "journal.compacted.jsonl";

/** FNV-1a 64-bit over @p text, rendered as 16 hex digits. */
std::string
hashHex(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Render a config value for a mismatch message, clipped for sanity. */
std::string
renderValue(const Json *v)
{
    if (!v)
        return "(absent)";
    std::string s = v->dump();
    constexpr std::size_t kMax = 96;
    if (s.size() > kMax)
        s = s.substr(0, kMax) + "...";
    return s;
}

/**
 * Dotted path and values of the first leaf on which two config
 * documents disagree ("requests: 2000 vs 1500",
 * "spec.workloads[1]: \"hm\" vs \"usr\""); empty when the documents are
 * equal (the fingerprint then differs only through the campaign name —
 * possible only via journal surgery).
 */
std::string
firstMismatch(const Json &stored, const Json &current,
              const std::string &path)
{
    const auto label = [&](const std::string &leaf) {
        return path.empty() ? leaf : path + "." + leaf;
    };
    if (stored.isObject() && current.isObject()) {
        std::vector<std::string> keys;
        const auto collect = [&](const Json &doc) {
            for (std::size_t i = 0; i < doc.size(); ++i) {
                const std::string &name = doc.member(i).first;
                if (std::find(keys.begin(), keys.end(), name) ==
                    keys.end())
                    keys.push_back(name);
            }
        };
        collect(current);
        collect(stored);
        for (const auto &key : keys) {
            const Json *a = stored.find(key);
            const Json *b = current.find(key);
            if (a && b) {
                if (*a == *b)
                    continue;
                const std::string deeper =
                    firstMismatch(*a, *b, label(key));
                if (!deeper.empty())
                    return deeper;
            }
            return detail::concat(label(key), ": ", renderValue(a),
                                  " vs ", renderValue(b));
        }
        return "";
    }
    if (stored.isArray() && current.isArray()) {
        if (stored.size() != current.size()) {
            return detail::concat(path, ": ", stored.size(),
                                  " item(s) vs ", current.size());
        }
        for (std::size_t i = 0; i < stored.size(); ++i) {
            if (stored.at(i) == current.at(i))
                continue;
            return firstMismatch(stored.at(i), current.at(i),
                                 detail::concat(path, "[", i, "]"));
        }
        return "";
    }
    if (stored == current)
        return "";
    return detail::concat(path, ": ", renderValue(&stored), " vs ",
                          renderValue(&current));
}

/** Read a whole file (empty string when it does not exist). */
std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream content;
    content << in.rdbuf();
    if (in.bad())
        AERO_FATAL("failed reading checkpoint '", path, "'");
    return content.str();
}

/** Worker journal files inside @p dir, in sorted (merge) order. */
std::vector<std::string>
listJournalFiles(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("journal.", 0) == 0 && name.size() > 14 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0)
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/** Is @p pid a live process (or at least one we cannot signal)? */
bool
pidAlive(long long pid)
{
#ifndef _WIN32
    if (pid <= 0)
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return true;
    return errno == EPERM;
#else
    (void)pid;
    return false;
#endif
}

/**
 * Walk the JSON lines of @p text — the contents of @p file — calling
 * fn(row, lineNo) on every complete line in order, and return the byte
 * offset just past the last one. A final line that fails to parse or
 * lacks its newline is a torn write: it is skipped with a warning
 * (@p verb says what becomes of it) and never reaches @p fn — even when
 * its JSON happens to be complete, appending after it would fuse two
 * lines into one corrupt line. A bad line anywhere else is fatal.
 */
template <typename Fn>
std::uint64_t
walkLines(const std::string &file, const std::string &text,
          const char *verb, Fn &&fn)
{
    std::uint64_t goodBytes = 0;
    std::size_t lineNo = 0;
    while (goodBytes < text.size()) {
        std::size_t end = text.find('\n', goodBytes);
        const bool terminated = end != std::string::npos;
        if (!terminated)
            end = text.size();
        const std::string line = text.substr(goodBytes, end - goodBytes);
        lineNo += 1;
        Json row;
        Json::ParseError err;
        if (!terminated || line.empty() || !Json::parse(line, &row, &err)) {
            if (end + 1 >= text.size()) {
                AERO_WARN("checkpoint '", file, "': ", verb,
                          " torn record on line ", lineNo);
                break;
            }
            AERO_FATAL("checkpoint '", file, "' is corrupt: line ", lineNo,
                       ": ", line.empty() ? "empty record" : err.toString());
        }
        fn(row, lineNo);
        goodBytes = end + 1;
    }
    return goodBytes;
}

/** A journal file's header line. */
Json
headerRow(const std::string &campaign, const std::string &fp,
          const std::string &worker, const Json &config)
{
    Json header = Json::object();
    header["schema"] = kSchema;
    header["campaign"] = campaign;
    header["fingerprint"] = fp;
    header["worker"] = worker;
    header["config"] = config;
    return header;
}

/** One journaled task's line. */
Json
recordRow(const std::string &fp, const Json &key, const Json &payload)
{
    Json row = Json::object();
    row["fingerprint"] = fp;
    row["key"] = key;
    row["payload"] = payload;
    return row;
}

/**
 * The claims in @p text (the claims file @p file of the campaign with
 * fingerprint @p fp) in first-claim order, the last claim per key
 * winning (a stale claim of a dead pid is re-taken by appending).
 * @p goodBytes receives the offset past the last intact line.
 */
std::vector<CampaignClaimStatus>
parseClaims(const std::string &file, const std::string &text,
            const std::string &fp, std::uint64_t *goodBytes = nullptr)
{
    std::vector<CampaignClaimStatus> claims;
    std::unordered_map<std::string, std::size_t> indexByKey;
    const std::uint64_t good = walkLines(
        file, text, "ignoring", [&](const Json &row, std::size_t lineNo) {
            const Json *storedFp = row.find("fingerprint");
            if (lineNo == 1) {
                const Json *storedSchema = row.find("schema");
                if (!storedSchema || !storedSchema->isString() ||
                    storedSchema->asString() != kSchemaClaims ||
                    !storedFp || !storedFp->isString()) {
                    AERO_FATAL("'", file, "' is not an ", kSchemaClaims,
                               " claims file (line 1)");
                }
            } else {
                const Json *key = row.find("key");
                const Json *worker = row.find("worker");
                const Json *pid = row.find("pid");
                if (!storedFp || !storedFp->isString() || !key ||
                    !worker || !worker->isString() || !pid ||
                    !pid->isNumeric()) {
                    AERO_FATAL("claims file '", file,
                               "' has a malformed claim on line ", lineNo);
                }
                CampaignClaimStatus claim;
                claim.key = *key;
                claim.worker = worker->asString();
                claim.pid = static_cast<long long>(pid->asInt64());
                const auto [it, fresh] =
                    indexByKey.emplace(key->dump(), claims.size());
                if (fresh)
                    claims.push_back(std::move(claim));
                else
                    claims[it->second] = std::move(claim);
            }
            if (storedFp->asString() != fp) {
                AERO_FATAL("claims file '", file, "': line ", lineNo,
                           " carries fingerprint ", storedFp->asString(),
                           ", expected ", fp,
                           " — it belongs to a different campaign "
                           "configuration");
            }
        });
    if (goodBytes)
        *goodBytes = good;
    return claims;
}

} // namespace

std::string
CampaignJournal::fingerprint(const std::string &campaign,
                             const Json &config)
{
    return hashHex(campaign + '\n' + config.dump());
}

CampaignJournal::CampaignJournal(std::string path, std::string name,
                                 Json config, JournalOptions opts)
    : journalPath(std::move(path)), campaign(std::move(name)),
      fp(fingerprint(campaign, config)), configJson(std::move(config)),
      options(opts)
{
    namespace fs = std::filesystem;
    if (const char *env = std::getenv("AERO_JOURNAL_FSYNC")) {
        if (std::strcmp(env, "1") == 0)
            options.fsyncRecords = true;
        else if (std::strcmp(env, "0") == 0)
            options.fsyncRecords = false;
        else
            AERO_FATAL("AERO_JOURNAL_FSYNC must be 0 or 1, got '", env,
                       "'");
    }
    // A bad journal path must fail naming the path, not surface later
    // as a raw stream failure once the first record is flushed.
    std::error_code ec;
    if (!fs::exists(journalPath, ec)) {
        const auto parent = fs::path(journalPath).parent_path();
        if (!parent.empty() && !fs::is_directory(parent, ec)) {
            AERO_FATAL("cannot create checkpoint '", journalPath,
                       "': parent directory '", parent.string(),
                       "' does not exist");
        }
        // Forked workers race to create the directory; losing the race
        // to a sibling is success.
        fs::create_directory(journalPath, ec);
        if (!fs::is_directory(journalPath)) {
            AERO_FATAL("cannot create checkpoint '", journalPath, "': ",
                       ec.message());
        }
    } else if (!fs::is_directory(journalPath, ec)) {
        // Never write into (or truncate) a file the caller pointed us
        // at by mistake: an old single-file journal, an artifact, ...
        AERO_FATAL("checkpoint '", journalPath,
                   "' exists and is not a journal directory — refusing "
                   "to touch it");
    }
    appendPath = (fs::path(journalPath) /
                  ("journal." + workerName() + ".jsonl"))
                     .string();
    load(/*readOnly=*/false);
}

CampaignJournal::CampaignJournal(std::string path)
    : journalPath(std::move(path))
{
    std::error_code ec;
    if (!std::filesystem::is_directory(journalPath, ec))
        AERO_FATAL("no campaign journal at '", journalPath, "'");
    load(/*readOnly=*/true);
}

CampaignJournal::~CampaignJournal()
{
    if (out)
        std::fclose(out);
#ifndef _WIN32
    if (claimsFd >= 0)
        ::close(claimsFd);
#endif
}

std::string
CampaignJournal::workerName() const
{
    if (!claimsEnabled())
        return "driver";
    // Built by append (not operator+) to dodge GCC 12's -Wrestrict
    // false positive on char* + std::string&&.
    std::string name = "w";
    name += std::to_string(options.worker);
    return name;
}

std::string
CampaignJournal::claimsPath() const
{
    return (std::filesystem::path(journalPath) / kClaimsFile).string();
}

std::size_t
CampaignJournal::cachedCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

bool
CampaignJournal::has(const Json &key) const
{
    std::lock_guard<std::mutex> lock(mutex);
    return indexByKey.count(key.dump()) > 0;
}

Json
CampaignJournal::cached(const Json &key) const
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = indexByKey.find(key.dump());
    AERO_CHECK(it != indexByKey.end(), "no journaled record for key ",
               key.dump());
    return entries[it->second].second;
}

void
CampaignJournal::forEachCached(
    const std::function<void(const Json &, const Json &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[key, payload] : entries)
        fn(key, payload);
}

std::size_t
CampaignJournal::recordSyncCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return recordSyncs;
}

std::size_t
CampaignJournal::claimSyncCount() const
{
    std::lock_guard<std::mutex> lock(claimsMutex);
    return claimSyncs;
}

void
CampaignJournal::insert(Json key, Json payload)
{
    const std::string canonical = key.dump();
    const auto it = indexByKey.find(canonical);
    if (it != indexByKey.end()) {
        // Duplicate keys come from journal surgery or from a reaped
        // claim recomputed by another worker; last wins, matching what
        // a replaying reader would observe.
        entries[it->second].second = std::move(payload);
        return;
    }
    indexByKey.emplace(canonical, entries.size());
    entries.emplace_back(std::move(key), std::move(payload));
}

void
CampaignJournal::load(bool readOnly)
{
    // Only this process's own file is ever truncated; a sibling's file
    // can legitimately end mid-write (it may still be appending), so
    // its torn tail is skipped and the file left untouched.
    std::uint64_t ownBytes = 0;
    for (const auto &file : listJournalFiles(journalPath)) {
        const bool own = file == appendPath;
        CampaignWorkerStatus status;
        status.file = std::filesystem::path(file).filename().string();
        const std::uint64_t goodBytes = walkLines(
            file, readFileOrEmpty(file), own ? "dropping" : "ignoring",
            [&](const Json &row, std::size_t lineNo) {
                if (lineNo == 1) {
                    loadHeader(file, row, lineNo);
                    status.worker = row.find("worker")->asString();
                    return;
                }
                const Json *recordFp = row.find("fingerprint");
                const Json *key = row.find("key");
                const Json *payload = row.find("payload");
                if (!recordFp || !recordFp->isString() || !key ||
                    !payload) {
                    AERO_FATAL("checkpoint '", file,
                               "' has a malformed record on line ",
                               lineNo);
                }
                if (recordFp->asString() != fp) {
                    AERO_FATAL("checkpoint '", file, "': record on line ",
                               lineNo, " carries fingerprint ",
                               recordFp->asString(), ", expected ", fp,
                               " — refusing to splice records from a "
                               "different campaign");
                }
                insert(*key, *payload);
                status.records += 1;
            });
        if (own)
            ownBytes = goodBytes;
        if (goodBytes > 0)
            loaded.push_back(std::move(status));
    }
    if (!readOnly)
        openForAppend(ownBytes, /*writeHeader=*/ownBytes == 0);
    else if (fp.empty())
        AERO_FATAL("no campaign journal at '", journalPath,
                   "': no journal.*.jsonl file with a header");
}

void
CampaignJournal::loadHeader(const std::string &filePath, const Json &row,
                            std::size_t lineNo)
{
    const Json *storedSchema = row.find("schema");
    if (!storedSchema || !storedSchema->isString() ||
        storedSchema->asString() != kSchema) {
        AERO_FATAL("'", filePath, "' is not an ", kSchema,
                   " journal (line ", lineNo, ")");
    }
    const Json *storedName = row.find("campaign");
    const Json *storedFp = row.find("fingerprint");
    const Json *storedConfig = row.find("config");
    const Json *storedWorker = row.find("worker");
    if (!storedName || !storedName->isString() || !storedFp ||
        !storedFp->isString() || !storedConfig ||
        !storedConfig->isObject() || !storedWorker ||
        !storedWorker->isString()) {
        AERO_FATAL("checkpoint '", filePath,
                   "' has a malformed header (line ", lineNo, ")");
    }
    if (fp.empty()) {
        // A read-only open adopts whatever campaign the first header
        // pins; every later file must then agree with it.
        campaign = storedName->asString();
        fp = storedFp->asString();
        configJson = *storedConfig;
        return;
    }
    if (storedName->asString() != campaign) {
        AERO_FATAL("checkpoint '", filePath,
                   "' belongs to campaign '", storedName->asString(),
                   "', expected '", campaign,
                   "' — refusing to resume another campaign's journal");
    }
    if (storedFp->asString() != fp) {
        const std::string field =
            firstMismatch(*storedConfig, configJson, "");
        AERO_FATAL("checkpoint '", filePath, "' was written for a "
                   "different '", campaign,
                   "' campaign configuration (fingerprint ",
                   storedFp->asString(), ", expected ", fp, "): ",
                   field.empty()
                       ? "stored configuration matches — journal "
                         "corrupt?"
                       : field);
    }
}

void
CampaignJournal::openForAppend(std::uint64_t keepBytes, bool writeHeader)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(appendPath, ec);
    if (!ec && size > keepBytes) {
        std::filesystem::resize_file(appendPath, keepBytes, ec);
        if (ec) {
            AERO_FATAL("cannot truncate torn tail of '", appendPath,
                       "': ", ec.message());
        }
    }
    out = std::fopen(appendPath.c_str(), "ab");
    if (!out)
        AERO_FATAL("cannot open checkpoint '", appendPath,
                   "' for appending");
#ifndef _WIN32
    // The worker file is this process's exclusive append target: a
    // second live process under the same worker index would interleave
    // torn lines. The advisory lock dies with the process, so a
    // SIGKILLed worker never wedges the next resume; a briefly
    // lingering orphan (its parent just died) gets a grace period.
    bool locked = false;
    for (int attempt = 0; attempt < 20; ++attempt) {
        if (::flock(::fileno(out), LOCK_EX | LOCK_NB) == 0) {
            locked = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!locked) {
        AERO_FATAL("worker '", workerName(),
                   "' is already active on journal '", journalPath,
                   "' (another live process holds the lock on '",
                   appendPath, "')");
    }
#endif
    if (writeHeader)
        append(headerRow(campaign, fp, workerName(), configJson));
}

void
CampaignJournal::append(const Json &row)
{
    const std::string line = row.dump() + '\n';
    if (std::fwrite(line.data(), 1, line.size(), out) != line.size() ||
        std::fflush(out) != 0) {
        AERO_FATAL("failed writing checkpoint '", appendPath, "'");
    }
    if (options.fsyncRecords) {
#ifndef _WIN32
        if (::fsync(::fileno(out)) != 0) {
            AERO_FATAL("fsync failed on checkpoint '", appendPath,
                       "': ", std::strerror(errno));
        }
#endif
        recordSyncs += 1;
    }
}

void
CampaignJournal::record(const Json &key, Json payload)
{
    const Json row = recordRow(fp, key, payload);
    std::lock_guard<std::mutex> lock(mutex);
    append(row);
    insert(key, std::move(payload));
}

bool
CampaignJournal::tryClaim(const Json &key)
{
    if (!claimsEnabled())
        return true;
#ifdef _WIN32
    return true;
#else
    std::lock_guard<std::mutex> lock(claimsMutex);
    const std::string path = claimsPath();
    if (claimsFd < 0) {
        claimsFd =
            ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (claimsFd < 0) {
            AERO_FATAL("cannot open claims file '", path, "': ",
                       std::strerror(errno));
        }
    }
    if (::flock(claimsFd, LOCK_EX) != 0) {
        AERO_FATAL("cannot lock claims file '", path, "': ",
                   std::strerror(errno));
    }
    // flock() is advisory and per-open-file-description: the
    // process-level lock above serializes our own threads, the flock
    // serializes sibling worker processes.
    struct Unlock
    {
        int fd;
        ~Unlock() { ::flock(fd, LOCK_UN); }
    } unlock{claimsFd};

    // Re-read the whole claims file under the lock: claims appended by
    // siblings since our last look must be visible before we decide.
    std::string text;
    {
        char buf[65536];
        off_t offset = 0;
        for (;;) {
            const ssize_t n =
                ::pread(claimsFd, buf, sizeof(buf), offset);
            if (n < 0) {
                AERO_FATAL("cannot read claims file '", path, "': ",
                           std::strerror(errno));
            }
            if (n == 0)
                break;
            text.append(buf, static_cast<std::size_t>(n));
            offset += n;
        }
    }
    // A torn final claim is a crash mid-claim: that claim never took
    // effect (its fsync did not complete), so it is ignored here.
    std::uint64_t goodBytes = 0;
    const std::string me = workerName();
    for (const auto &claim : parseClaims(path, text, fp, &goodBytes)) {
        if (claim.key != key)
            continue;
        if (claim.worker != me && pidAlive(claim.pid))
            return false;  // a live sibling owns this task
        break;
    }
    // Ours: either unclaimed, already ours (a resumed worker re-claims
    // under its current pid), or stale — the claiming pid is dead and
    // the task was never journaled, so reap it and take over.
    std::string lines;
    if (goodBytes == 0) {
        Json header = Json::object();
        header["schema"] = kSchemaClaims;
        header["campaign"] = campaign;
        header["fingerprint"] = fp;
        lines += header.dump() + '\n';
    }
    Json row = Json::object();
    row["fingerprint"] = fp;
    row["key"] = key;
    row["worker"] = me;
    row["pid"] = static_cast<std::int64_t>(::getpid());
    lines += row.dump() + '\n';
    // Write after the last intact line: under the flock no live sibling
    // is mid-write, so a torn tail belongs to a dead claimer, and
    // appending after it would fuse two claims into one corrupt line.
    if ((goodBytes < text.size() &&
         ::ftruncate(claimsFd, static_cast<off_t>(goodBytes)) != 0) ||
        ::pwrite(claimsFd, lines.data(), lines.size(),
                 static_cast<off_t>(goodBytes)) !=
            static_cast<ssize_t>(lines.size()) ||
        ::fsync(claimsFd) != 0) {
        AERO_FATAL("failed writing claims file '", path, "': ",
                   std::strerror(errno));
    }
    claimSyncs += 1;
    return true;
#endif
}

CompactStats
compactCampaignJournal(const std::string &path)
{
    namespace fs = std::filesystem;
    const CampaignJournal journal(path);
    CompactStats stats;
    stats.files = journal.loaded.size();
    for (const auto &file : journal.loaded)
        stats.recordsIn += file.records;
    stats.recordsOut = journal.entries.size();

    const std::string outPath = (fs::path(path) / kCompactedFile).string();
    const std::string tmpPath = (fs::path(path) / ".compact.tmp").string();
    std::string body = headerRow(journal.campaign, journal.fp, "compacted",
                                 journal.configJson)
                           .dump() +
                       '\n';
    for (const auto &[key, payload] : journal.entries)
        body += recordRow(journal.fp, key, payload).dump() + '\n';
    std::FILE *outFile = std::fopen(tmpPath.c_str(), "wb");
    if (!outFile)
        AERO_FATAL("cannot write compacted journal '", tmpPath, "'");
    const bool wrote =
        std::fwrite(body.data(), 1, body.size(), outFile) ==
            body.size() &&
        std::fflush(outFile) == 0;
#ifndef _WIN32
    const bool synced = wrote && ::fsync(::fileno(outFile)) == 0;
#else
    const bool synced = wrote;
#endif
    std::fclose(outFile);
    if (!synced)
        AERO_FATAL("failed writing compacted journal '", tmpPath, "'");
    std::error_code ec;
    fs::rename(tmpPath, outPath, ec);
    if (ec) {
        AERO_FATAL("cannot rename compacted journal into place ('",
                   tmpPath, "' -> '", outPath, "'): ", ec.message());
    }
    // The compacted file now supersedes every input; removal is safe at
    // any point (a crash here only leaves files whose records the merge
    // reproduces by dedup on the next open).
    for (const auto &file : listJournalFiles(path)) {
        if (file != outPath)
            fs::remove(file, ec);
    }
    fs::remove(journal.claimsPath(), ec);
    return stats;
}

CampaignStatus
campaignStatus(const std::string &path)
{
    const CampaignJournal journal(path);
    CampaignStatus status;
    status.path = path;
    status.campaign = journal.campaign;
    status.fingerprint = journal.fp;
    status.workers = journal.loaded;
    for (const auto &ws : status.workers)
        status.records += ws.records;
    status.distinctKeys = journal.entries.size();
    status.claims = parseClaims(journal.claimsPath(),
                                readFileOrEmpty(journal.claimsPath()),
                                journal.fp);
    for (auto &claim : status.claims) {
        claim.live = pidAlive(claim.pid);
        claim.completed = journal.has(claim.key);
    }
    return status;
}

std::string
formatCampaignStatus(const CampaignStatus &status)
{
    std::string out = detail::concat(
        "campaign '", status.campaign, "' (", kSchema, ") at ",
        status.path, "\n  fingerprint ", status.fingerprint, "\n  ",
        status.distinctKeys, " distinct task(s) journaled (",
        status.records, " record(s) across ", status.workers.size(),
        " file(s))\n");
    for (const auto &ws : status.workers) {
        out += detail::concat("    ", ws.file, " (worker ", ws.worker,
                              "): ", ws.records, " record(s)\n");
    }
    if (status.claims.empty())
        return out;
    std::size_t pending = 0;
    for (const auto &claim : status.claims)
        pending += claim.completed ? 0 : 1;
    out += detail::concat("  ", status.claims.size(), " claim(s), ",
                          pending, " pending\n");
    for (const auto &claim : status.claims) {
        out += detail::concat(
            "    ", claim.key.dump(), " -> worker ", claim.worker,
            " (pid ", claim.pid, ", ", claim.live ? "live" : "dead",
            "), ", claim.completed ? "completed" : "pending", "\n");
    }
    return out;
}

namespace
{

/**
 * Fork @p n campaign worker processes. Returns the worker index
 * (0..n-1) in each child and JournalOptions::kDriver in the parent
 * after every child has exited; with n <= 1 nothing is forked. Children
 * die with the parent (PDEATHSIG on Linux), so a SIGKILLed driver never
 * leaks workers that would fight the next resume for journal file
 * locks. A child that dies or exits nonzero is only a warning: the
 * parent completes its remaining tasks from the journal.
 */
int
forkCampaignWorkers(int n)
{
    if (n <= 1)
        return JournalOptions::kDriver;
#ifdef _WIN32
    AERO_FATAL("multi-process campaigns need POSIX fork(); run "
               "single-process instead");
#else
    std::vector<pid_t> children;
    children.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            AERO_FATAL("fork() failed for campaign worker ", k, ": ",
                       std::strerror(errno));
        }
        if (pid == 0) {
#ifdef __linux__
            // Die with the driver: a SIGKILLed campaign must not leak
            // orphan workers that fight the next resume for journal
            // file locks.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() == 1)
                std::_Exit(127);  // driver died before prctl took hold
#endif
            return k;
        }
        children.push_back(pid);
    }
    int failures = 0;
    for (const pid_t pid : children) {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0 ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            failures += 1;
        }
    }
    if (failures > 0) {
        AERO_WARN(failures, " of ", n, " campaign worker(s) did not "
                  "exit cleanly; completing their remaining tasks "
                  "in-process from the journal");
    }
    return JournalOptions::kDriver;
#endif
}

} // namespace

int
parseWorkerCount(const std::string &value)
{
    const int n = parseDecimal<int>(value).value_or(0);
    if (n < 1 || n > 256)
        AERO_FATAL("--workers: '", value,
                   "' is not a worker count in [1, 256]");
    return n;
}

void
detail::runCampaign(const CampaignArgs &args, const std::string &name,
                    Json config,
                    const std::function<void(const CampaignScope &)> &body)
{
    if (args.workers > 1 && args.checkpointPath.empty()) {
        AERO_FATAL("--workers needs --checkpoint <dir>: the worker "
                   "processes coordinate through the shared journal "
                   "directory");
    }
    if (args.checkpointPath.empty()) {
        body(CampaignScope{});
        return;
    }
    // Fork before opening the journal: each child opens its own worker
    // file with claims armed, the driver opens the merged directory once
    // every child has exited.
    JournalOptions options;
    options.worker = forkCampaignWorkers(args.workers);
    options.fsyncRecords = args.fsyncRecords;
    CampaignJournal journal(args.checkpointPath, name, std::move(config),
                            options);
    if (!journal.claimsEnabled() && journal.cachedCount() > 0) {
        std::printf("checkpoint: resuming %zu journaled task(s) from %s\n",
                    journal.cachedCount(), args.checkpointPath.c_str());
    }
    body(CampaignScope{&journal});
    if (journal.claimsEnabled()) {
        // _Exit, not exit(): the child shares the driver's stdio
        // buffers, and flushing them here would duplicate output. Its
        // records are already flushed; artifacts belong to the driver.
        std::_Exit(0);
    }
}

} // namespace aero
