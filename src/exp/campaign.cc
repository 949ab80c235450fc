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

#ifndef _WIN32
#include <sys/file.h>
#include <unistd.h>
#endif

#include "common/logging.hh"

namespace aero
{

namespace
{

constexpr const char *kSchema = "aero-campaign/2";
constexpr const char *kJournalFile = "journal.driver.jsonl";

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

/**
 * Fatal when @p dir holds a JSON-lines file other than the journal: the
 * removed multi-process mode left per-worker and compacted journals and
 * a claims file there, whose records cannot be merged any more. Refuse
 * rather than drop that work without a word; the file is left
 * untouched.
 */
void
rejectLeftoverFiles(const std::string &dir)
{
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const auto &file = entry.path();
        if (file.extension() != ".jsonl" || file.filename() == kJournalFile)
            continue;
        AERO_FATAL("checkpoint '", dir, "' holds '", file.string(),
                   "', a file of the removed multi-process campaign mode "
                   "(its workers and compact options); a journal is one ",
                   kJournalFile, " — move the file away or use a fresh "
                   "directory");
    }
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

/** The journal file's header line. */
Json
headerRow(const std::string &campaign, const std::string &fp,
          const Json &config)
{
    Json header = Json::object();
    header["schema"] = kSchema;
    header["campaign"] = campaign;
    header["fingerprint"] = fp;
    // Pinned bytes: every journal this format ever resumed names its
    // one writer here.
    header["worker"] = "driver";
    header["config"] = config;
    return header;
}

} // namespace

std::string
CampaignJournal::fingerprint(const std::string &campaign,
                             const Json &config)
{
    return hashHex(campaign + '\n' + config.dump());
}

CampaignJournal::CampaignJournal(std::string path, std::string name,
                                 Json config)
    : journalPath(std::move(path)), campaign(std::move(name)),
      fp(fingerprint(campaign, config)), configJson(std::move(config))
{
    namespace fs = std::filesystem;
    if (const char *env = std::getenv("AERO_JOURNAL_FSYNC")) {
        if (std::strcmp(env, "1") != 0 && std::strcmp(env, "0") != 0)
            AERO_FATAL("AERO_JOURNAL_FSYNC must be 0 or 1, got '", env,
                       "'");
        syncEachRecord = env[0] == '1';
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

void
CampaignJournal::insert(Json key, Json payload)
{
    const std::string canonical = key.dump();
    const auto it = indexByKey.find(canonical);
    if (it != indexByKey.end()) {
        // Only journal surgery duplicates a key (a resume never
        // re-records a cached one); last wins, matching what a
        // replaying reader would observe.
        entries[it->second].second = std::move(payload);
        return;
    }
    indexByKey.emplace(canonical, entries.size());
    entries.emplace_back(std::move(key), std::move(payload));
}

void
CampaignJournal::load(bool readOnly)
{
    rejectLeftoverFiles(journalPath);
    filePath = (std::filesystem::path(journalPath) / kJournalFile).string();
    // Lock before reading: the file's tail is only ours to judge (and
    // truncate) once no other live process can be appending to it.
    if (!readOnly)
        openForAppend();
    const std::uint64_t goodBytes = walkLines(
        filePath, readFileOrEmpty(filePath),
        readOnly ? "ignoring" : "dropping",
        [&](const Json &row, std::size_t lineNo) {
            if (lineNo == 1) {
                loadHeader(row, lineNo);
                return;
            }
            const Json *recordFp = row.find("fingerprint");
            const Json *key = row.find("key");
            const Json *payload = row.find("payload");
            if (!recordFp || !recordFp->isString() || !key || !payload) {
                AERO_FATAL("checkpoint '", filePath,
                           "' has a malformed record on line ", lineNo);
            }
            if (recordFp->asString() != fp) {
                AERO_FATAL("checkpoint '", filePath, "': record on line ",
                           lineNo, " carries fingerprint ",
                           recordFp->asString(), ", expected ", fp,
                           " — refusing to splice records from a "
                           "different campaign");
            }
            insert(*key, *payload);
            loadedRecords += 1;
        });
    if (readOnly) {
        if (fp.empty()) {
            AERO_FATAL("no campaign journal at '", journalPath, "': no ",
                       kJournalFile, " with a header");
        }
        return;
    }
    std::error_code ec;
    const auto size = std::filesystem::file_size(filePath, ec);
    if (!ec && size > goodBytes) {
        std::filesystem::resize_file(filePath, goodBytes, ec);
        if (ec) {
            AERO_FATAL("cannot truncate torn tail of '", filePath, "': ",
                       ec.message());
        }
    }
    if (goodBytes == 0)
        append(headerRow(campaign, fp, configJson));
}

void
CampaignJournal::loadHeader(const Json &row, std::size_t lineNo)
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
        // A read-only open adopts whatever campaign the header pins.
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
CampaignJournal::openForAppend()
{
    out = std::fopen(filePath.c_str(), "ab");
    if (!out)
        AERO_FATAL("cannot open checkpoint '", filePath,
                   "' for appending");
#ifndef _WIN32
    // A second live process appending to the same file would interleave
    // torn lines. The advisory lock dies with its process, so a
    // SIGKILLed run never wedges the next resume.
    if (::flock(::fileno(out), LOCK_EX | LOCK_NB) != 0) {
        AERO_FATAL("checkpoint '", journalPath,
                   "' is already open in another live process (it holds "
                   "the lock on '", filePath, "')");
    }
#endif
}

void
CampaignJournal::append(const Json &row)
{
    const std::string line = row.dump() + '\n';
    if (std::fwrite(line.data(), 1, line.size(), out) != line.size() ||
        std::fflush(out) != 0) {
        AERO_FATAL("failed writing checkpoint '", filePath, "'");
    }
    if (syncEachRecord) {
#ifndef _WIN32
        if (::fsync(::fileno(out)) != 0) {
            AERO_FATAL("fsync failed on checkpoint '", filePath,
                       "': ", std::strerror(errno));
        }
#endif
        recordSyncs += 1;
    }
}

void
CampaignJournal::record(const Json &key, Json payload)
{
    Json row = Json::object();
    row["fingerprint"] = fp;
    row["key"] = key;
    row["payload"] = payload;
    std::lock_guard<std::mutex> lock(mutex);
    append(row);
    insert(key, std::move(payload));
}

CampaignStatus
campaignStatus(const std::string &path)
{
    const CampaignJournal journal(path);
    CampaignStatus status;
    status.path = path;
    status.campaign = journal.campaign;
    status.fingerprint = journal.fp;
    status.records = journal.loadedRecords;
    status.distinctKeys = journal.entries.size();
    return status;
}

std::string
formatCampaignStatus(const CampaignStatus &status)
{
    return detail::concat("campaign '", status.campaign, "' (", kSchema,
                          ") at ", status.path, "\n  fingerprint ",
                          status.fingerprint, "\n  ", status.distinctKeys,
                          " distinct task(s) journaled (", status.records,
                          " record(s))\n");
}

void
detail::runCampaign(const CampaignArgs &args, const std::string &name,
                    Json config,
                    const std::function<void(const CampaignScope &)> &body)
{
    if (args.checkpointPath.empty()) {
        body(CampaignScope{});
        return;
    }
    CampaignJournal journal(args.checkpointPath, name, std::move(config));
    if (journal.cachedCount() > 0) {
        std::printf("checkpoint: resuming %zu journaled task(s) from %s\n",
                    journal.cachedCount(), args.checkpointPath.c_str());
    }
    body(CampaignScope{&journal});
}

} // namespace aero
