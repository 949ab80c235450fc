/**
 * @file
 * Tests for multi-process campaign execution: `aero-campaign/2` journal
 * directories merged from per-worker files (the line format pinned
 * byte-for-byte), file-locked claim records with stale-claim reaping,
 * journal compaction and status, the per-record fsync durability knob,
 * and — the capstone — a fork-based battery that runs real worker
 * processes against one journal directory with randomized SIGKILLs and
 * requires the merged resume to be byte-identical to a clean
 * single-process run.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "exp/campaign.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"

namespace aero
{
namespace
{

namespace fs = std::filesystem;

/** The tiny 2x2 grid every resume test replays (seconds, not hours). */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.workloads = {"prxy", "hm"};
    spec.schemes = {SchemeKind::Baseline, SchemeKind::Aero};
    spec.pecs = {2500.0};
    spec.requests = 1500;
    spec.base = SsdConfig::tiny();
    return spec;
}

std::string
tempPath(const std::string &name)
{
    const auto path = fs::path(::testing::TempDir()) / name;
    fs::remove_all(path);
    return path.string();
}

std::string
artifactOf(const SweepSpec &spec, const std::vector<SimResult> &results)
{
    return sweepReport(spec, results).dump(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
}

Json
unitConfig()
{
    Json config = Json::object();
    config["what"] = "multi-process unit test";
    return config;
}

Json
taskKey(int task)
{
    Json key = Json::object();
    key["task"] = task;
    return key;
}

/** Options of forked worker @p k (JournalOptions::kDriver: driver). */
JournalOptions
workerOptions(int k)
{
    JournalOptions options;
    options.worker = k;
    return options;
}

constexpr int kDriver = JournalOptions::kDriver;

/** A pid guaranteed dead: fork a child that exits, then reap it. */
pid_t
deadPid()
{
    const pid_t pid = fork();
    if (pid == 0)
        std::_Exit(0);
    int status = 0;
    waitpid(pid, &status, 0);
    return pid;
}

// --------------------------------------------------------------------------
// Directory-mode journals: per-worker files, merged reads, last-wins.
// --------------------------------------------------------------------------

TEST(DirectoryJournal, WorkersMergeAcrossFiles)
{
    const std::string dir = tempPath("dir_merge");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        w0.record(taskKey(0), Json(10));
        w0.record(taskKey(1), Json(11));
    }
    {
        CampaignJournal w1(dir, "unit-test", unitConfig(),
                           workerOptions(1));
        // w1 sees w0's records through the merge...
        EXPECT_EQ(w1.cachedCount(), 2u);
        EXPECT_EQ(w1.cached(taskKey(0)).asInt64(), 10);
        w1.record(taskKey(2), Json(12));
    }
    EXPECT_TRUE(fs::exists(fs::path(dir) / "journal.w0.jsonl"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "journal.w1.jsonl"));

    CampaignJournal reader(dir, "unit-test", unitConfig(),
                           workerOptions(kDriver));
    EXPECT_EQ(reader.cachedCount(), 3u);
    for (int t = 0; t < 3; ++t) {
        ASSERT_TRUE(reader.has(taskKey(t)));
        EXPECT_EQ(reader.cached(taskKey(t)).asInt64(), 10 + t);
    }
}

TEST(DirectoryJournal, DuplicateKeysLastFileWins)
{
    // Files merge in sorted filename order, so a key journaled by both
    // w0 and w1 resolves to w1's payload on every reader.
    const std::string dir = tempPath("dir_dup");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        w0.record(taskKey(7), Json(1));
    }
    {
        CampaignJournal w1(dir, "unit-test", unitConfig(),
                           workerOptions(1));
        w1.record(taskKey(7), Json(2));
    }
    CampaignJournal reader(dir, "unit-test", unitConfig(),
                           workerOptions(kDriver));
    EXPECT_EQ(reader.cachedCount(), 1u);
    EXPECT_EQ(reader.cached(taskKey(7)).asInt64(), 2);
}

TEST(DirectoryJournal, SiblingTornTailIsIgnoredNotTruncated)
{
    // A sibling worker's file may end mid-append (it could still be
    // live): its torn tail must be skipped on merge but the file left
    // untouched — only our own file is ever truncated.
    const std::string dir = tempPath("dir_torn");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        w0.record(taskKey(0), Json(10));
        w0.record(taskKey(1), Json(11));
    }
    const std::string w0Path =
        (fs::path(dir) / "journal.w0.jsonl").string();
    const std::string before = readFile(w0Path);
    writeFile(w0Path, before + "{\"fingerprint\":\"tor");

    CampaignJournal w1(dir, "unit-test", unitConfig(),
                       workerOptions(1));
    EXPECT_EQ(w1.cachedCount(), 2u);
    EXPECT_EQ(readFile(w0Path), before + "{\"fingerprint\":\"tor")
        << "merging must never modify another worker's file";

    // Our *own* torn tail is truncated before we append after it.
    CampaignJournal w0Again(dir, "unit-test", unitConfig(),
                            workerOptions(0));
    EXPECT_EQ(readFile(w0Path), before);
}

TEST(DirectoryJournalDeath, ForeignWorkerFileFailsTheMerge)
{
    const std::string dir = tempPath("dir_foreign");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        w0.record(taskKey(0), Json(0));
    }
    // Forge another campaign's worker file into the directory (it has
    // to be forged — opening the shared directory under a different
    // campaign name would already refuse the merge).
    const std::string foreign = tempPath("dir_foreign_src");
    {
        CampaignJournal other(foreign, "other-campaign", unitConfig(),
                              workerOptions(1));
        other.record(taskKey(1), Json(1));
    }
    fs::copy_file(fs::path(foreign) / "journal.w1.jsonl",
                  fs::path(dir) / "journal.w1.jsonl");
    EXPECT_DEATH(CampaignJournal(dir, "unit-test", unitConfig(),
                                 workerOptions(2)),
                 "belongs to campaign 'other-campaign'");
}

TEST(DirectoryJournalDeath, LiveWorkerIdIsLocked)
{
    // Two live processes must not share a worker id: the second would
    // interleave torn lines into the first's append stream.
    const std::string dir = tempPath("dir_lock");
    CampaignJournal held(dir, "unit-test", unitConfig(),
                         workerOptions(0));
    held.record(taskKey(0), Json(0));
    EXPECT_DEATH(CampaignJournal(dir, "unit-test", unitConfig(),
                                 workerOptions(0)),
                 "already active");
    // A different worker id coexists fine.
    CampaignJournal other(dir, "unit-test", unitConfig(),
                          workerOptions(1));
    EXPECT_EQ(other.cachedCount(), 1u);
}

// --------------------------------------------------------------------------
// The line format must stay pinned byte-for-byte.
// --------------------------------------------------------------------------

TEST(JournalFormat, HeaderAndRecordBytesArePinned)
{
    // A single-process run is a journal directory holding one driver
    // file; these exact bytes must never change (existing journals
    // resume bit-identically).
    const std::string dir = tempPath("pinned.dir");
    Json config = Json::object();
    config["n"] = 3;
    {
        CampaignJournal journal(dir, "pin-test", config);
        journal.record(taskKey(1), Json(0.1));
    }
    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(dir))
        files.push_back(entry.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"journal.driver.jsonl"});
    const std::string fp =
        CampaignJournal::fingerprint("pin-test", config);
    EXPECT_EQ(readFile((fs::path(dir) / "journal.driver.jsonl").string()),
              "{\"schema\":\"aero-campaign/2\",\"campaign\":\"pin-test\","
              "\"fingerprint\":\"" + fp + "\",\"worker\":\"driver\","
              "\"config\":{\"n\":3}}\n"
              "{\"fingerprint\":\"" + fp + "\",\"key\":{\"task\":1},"
              "\"payload\":0.1}\n");
}

// --------------------------------------------------------------------------
// Claims: file-locked task arbitration with stale-claim reaping.
// --------------------------------------------------------------------------

TEST(Claims, DisabledClaimsAlwaysGrant)
{
    const std::string path = tempPath("noclaims.dir");
    CampaignJournal journal(path, "unit-test", unitConfig());
    EXPECT_FALSE(journal.claimsEnabled());
    EXPECT_TRUE(journal.tryClaim(taskKey(0)));
    EXPECT_EQ(journal.claimSyncCount(), 0u);
}

TEST(Claims, LiveSiblingClaimDeniesOthersButNotOwner)
{
    const std::string dir = tempPath("claims_live");
    CampaignJournal w0(dir, "unit-test", unitConfig(),
                       workerOptions(0));
    CampaignJournal w1(dir, "unit-test", unitConfig(),
                       workerOptions(1));
    EXPECT_TRUE(w0.tryClaim(taskKey(0)));
    // Both handles live in this (live) process, so w1 is denied...
    EXPECT_FALSE(w1.tryClaim(taskKey(0)));
    // ...but the owner may re-claim its own key (a resumed worker).
    EXPECT_TRUE(w0.tryClaim(taskKey(0)));
    // An unrelated key is free.
    EXPECT_TRUE(w1.tryClaim(taskKey(1)));
    EXPECT_GE(w0.claimSyncCount(), 2u);  // claims are always fsync'ed
}

TEST(Claims, DeadWorkersClaimIsReaped)
{
    const std::string dir = tempPath("claims_stale");
    const pid_t stale = deadPid();
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        ASSERT_TRUE(w0.tryClaim(taskKey(0)));
    }
    // Forge the claims file so the claim belongs to a pid that is
    // definitely dead (w0's claim actually carries our live pid, which
    // would deny w1 even though w0's handle is closed — pid liveness,
    // not handle liveness, is the contract).
    const std::string claimsPath =
        (fs::path(dir) / "claims.jsonl").string();
    std::string text = readFile(claimsPath);
    const std::string needle = "\"pid\":";
    const std::size_t at = text.rfind(needle);
    ASSERT_NE(at, std::string::npos);
    const std::size_t valueAt = at + needle.size();
    const std::size_t valueEnd = text.find_first_of(",}", valueAt);
    text = text.substr(0, valueAt) + std::to_string(stale) +
           text.substr(valueEnd);
    writeFile(claimsPath, text);

    CampaignJournal w1(dir, "unit-test", unitConfig(),
                       workerOptions(1));
    EXPECT_TRUE(w1.tryClaim(taskKey(0)))
        << "a dead worker's claim must be silently reaped";
}

TEST(Claims, TornClaimTailNeverTookEffect)
{
    const std::string dir = tempPath("claims_torn");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        ASSERT_TRUE(w0.tryClaim(taskKey(0)));
    }
    // A crash mid-claim leaves a torn final line; the claim is void.
    const std::string claimsPath =
        (fs::path(dir) / "claims.jsonl").string();
    writeFile(claimsPath,
              readFile(claimsPath) + "{\"fingerprint\":\"to");
    CampaignJournal w1(dir, "unit-test", unitConfig(),
                       workerOptions(1));
    EXPECT_TRUE(w1.tryClaim(taskKey(9)));
    // The next claim replaced the torn line instead of fusing with it.
    EXPECT_EQ(campaignStatus(dir).claims.size(), 2u);
}

// --------------------------------------------------------------------------
// Durability: the per-record fsync knob and its env override.
// --------------------------------------------------------------------------

TEST(Durability, FsyncRecordsCountsEveryAppend)
{
    const std::string path = tempPath("fsync.dir");
    JournalOptions options;
    options.fsyncRecords = true;
    CampaignJournal journal(path, "unit-test", unitConfig(), options);
    EXPECT_EQ(journal.recordSyncCount(), 1u);  // the header
    journal.record(taskKey(0), Json(0));
    journal.record(taskKey(1), Json(1));
    EXPECT_EQ(journal.recordSyncCount(), 3u);
}

TEST(Durability, DefaultIsFlushOnlyAndEnvOverridesBothWays)
{
    {
        CampaignJournal journal(tempPath("nofsync.dir"), "unit-test",
                                unitConfig());
        journal.record(taskKey(0), Json(0));
        EXPECT_EQ(journal.recordSyncCount(), 0u);
    }
    setenv("AERO_JOURNAL_FSYNC", "1", 1);
    {
        CampaignJournal journal(tempPath("envfsync.dir"), "unit-test",
                                unitConfig());
        journal.record(taskKey(0), Json(0));
        EXPECT_EQ(journal.recordSyncCount(), 2u);
    }
    setenv("AERO_JOURNAL_FSYNC", "0", 1);
    {
        JournalOptions options;
        options.fsyncRecords = true;  // env wins in both directions
        CampaignJournal journal(tempPath("envoff.dir"), "unit-test",
                                unitConfig(), options);
        journal.record(taskKey(0), Json(0));
        EXPECT_EQ(journal.recordSyncCount(), 0u);
    }
    unsetenv("AERO_JOURNAL_FSYNC");
}

TEST(DurabilityDeath, MalformedEnvIsFatal)
{
    setenv("AERO_JOURNAL_FSYNC", "yes", 1);
    EXPECT_DEATH(CampaignJournal(tempPath("envbad.dir"), "unit-test",
                                 unitConfig()),
                 "AERO_JOURNAL_FSYNC must be 0 or 1");
    unsetenv("AERO_JOURNAL_FSYNC");
}

// --------------------------------------------------------------------------
// Compaction.
// --------------------------------------------------------------------------

TEST(Compaction, DirectoryBecomesOneDeduplicatedFile)
{
    const std::string dir = tempPath("compact_dir");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        ASSERT_TRUE(w0.tryClaim(taskKey(0)));
        w0.record(taskKey(0), Json(10));
        w0.record(taskKey(1), Json(99));  // superseded below
    }
    {
        CampaignJournal w1(dir, "unit-test", unitConfig(),
                           workerOptions(1));
        w1.record(taskKey(1), Json(11));
        w1.record(taskKey(2), Json(12));
    }
    const CompactStats stats = compactCampaignJournal(dir);
    EXPECT_EQ(stats.files, 2u);
    EXPECT_EQ(stats.recordsIn, 4u);
    EXPECT_EQ(stats.recordsOut, 3u);

    std::vector<std::string> remaining;
    for (const auto &entry : fs::directory_iterator(dir))
        remaining.push_back(entry.path().filename().string());
    EXPECT_EQ(remaining,
              std::vector<std::string>{"journal.compacted.jsonl"})
        << "worker files and claims.jsonl must be gone";

    CampaignJournal reader(dir, "unit-test", unitConfig(),
                           workerOptions(kDriver));
    EXPECT_EQ(reader.cachedCount(), 3u);
    for (int t = 0; t < 3; ++t)
        EXPECT_EQ(reader.cached(taskKey(t)).asInt64(), 10 + t);
}

TEST(Compaction, SingleFileDeduplicatesInPlaceAndIsIdempotent)
{
    // A single-process journal (one driver file) compacts in place to
    // one deduplicated file, and compacting that again changes nothing.
    const std::string path = tempPath("compact_file.dir");
    {
        CampaignJournal journal(path, "unit-test", unitConfig());
        journal.record(taskKey(0), Json(1));
        journal.record(taskKey(0), Json(2));
        journal.record(taskKey(1), Json(3));
    }
    const CompactStats stats = compactCampaignJournal(path);
    EXPECT_EQ(stats.files, 1u);
    EXPECT_EQ(stats.recordsIn, 3u);
    EXPECT_EQ(stats.recordsOut, 2u);
    const std::string compacted =
        (fs::path(path) / "journal.compacted.jsonl").string();
    const std::string once = readFile(compacted);

    const CompactStats again = compactCampaignJournal(path);
    EXPECT_EQ(again.recordsIn, 2u);
    EXPECT_EQ(again.recordsOut, 2u);
    EXPECT_EQ(readFile(compacted), once)
        << "compaction must be idempotent";

    CampaignJournal reopened(path, "unit-test", unitConfig());
    EXPECT_EQ(reopened.cachedCount(), 2u);
    EXPECT_EQ(reopened.cached(taskKey(0)).asInt64(), 2);
}

TEST(CompactionDeath, MismatchedFingerprintsRefuse)
{
    const std::string dir = tempPath("compact_mixed");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        w0.record(taskKey(0), Json(0));
    }
    // Forge a same-name worker file with a different configuration
    // (a journal handle on the shared directory would refuse to open).
    Json other = unitConfig();
    other["spliced"] = true;
    const std::string foreign = tempPath("compact_mixed_src");
    {
        CampaignJournal w1(foreign, "unit-test", other,
                           workerOptions(1));
        w1.record(taskKey(1), Json(1));
    }
    fs::copy_file(fs::path(foreign) / "journal.w1.jsonl",
                  fs::path(dir) / "journal.w1.jsonl");
    EXPECT_DEATH(compactCampaignJournal(dir),
                 "different 'unit-test' campaign configuration.*spliced");
    EXPECT_DEATH(compactCampaignJournal(tempPath("compact_missing")),
                 "no campaign journal");
}

// --------------------------------------------------------------------------
// Status snapshots: per-worker progress and claim ownership.
// --------------------------------------------------------------------------

TEST(Status, SyntheticDirectoryReportsProgressClaimsAndLiveness)
{
    // Build an aero-campaign/2 directory by hand: w0 claimed and
    // finished a task, w1 holds a live pending claim, and a forged
    // third claim belongs to a worker whose pid is definitely dead.
    const std::string dir = tempPath("status_dir");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        ASSERT_TRUE(w0.tryClaim(taskKey(0)));
        w0.record(taskKey(0), Json(10));
    }
    {
        CampaignJournal w1(dir, "unit-test", unitConfig(),
                           workerOptions(1));
        ASSERT_TRUE(w1.tryClaim(taskKey(1)));
    }
    const std::string fp =
        CampaignJournal::fingerprint("unit-test", unitConfig());
    const std::string claimsPath =
        (fs::path(dir) / "claims.jsonl").string();
    writeFile(claimsPath,
              readFile(claimsPath) + "{\"fingerprint\":\"" + fp +
                  "\",\"key\":{\"task\":2},\"worker\":\"w2\",\"pid\":" +
                  std::to_string(deadPid()) + "}\n");

    const CampaignStatus status = campaignStatus(dir);
    EXPECT_EQ(status.campaign, "unit-test");
    EXPECT_EQ(status.fingerprint, fp);
    EXPECT_EQ(status.records, 1u);
    EXPECT_EQ(status.distinctKeys, 1u);
    ASSERT_EQ(status.workers.size(), 2u);
    EXPECT_EQ(status.workers[0].file, "journal.w0.jsonl");
    EXPECT_EQ(status.workers[0].worker, "w0");
    EXPECT_EQ(status.workers[0].records, 1u);
    EXPECT_EQ(status.workers[1].worker, "w1");
    EXPECT_EQ(status.workers[1].records, 0u);

    // Claims carry this (live) test process's pid except the forgery.
    ASSERT_EQ(status.claims.size(), 3u);
    EXPECT_EQ(status.claims[0].key.dump(), taskKey(0).dump());
    EXPECT_EQ(status.claims[0].worker, "w0");
    EXPECT_TRUE(status.claims[0].live);
    EXPECT_TRUE(status.claims[0].completed);
    EXPECT_EQ(status.claims[1].worker, "w1");
    EXPECT_TRUE(status.claims[1].live);
    EXPECT_FALSE(status.claims[1].completed);
    EXPECT_EQ(status.claims[2].worker, "w2");
    EXPECT_FALSE(status.claims[2].live);
    EXPECT_FALSE(status.claims[2].completed);

    const std::string text = formatCampaignStatus(status);
    EXPECT_NE(text.find("campaign 'unit-test' (aero-campaign/2)"),
              std::string::npos);
    EXPECT_NE(text.find("1 distinct task(s) journaled (1 record(s) "
                        "across 2 file(s))"),
              std::string::npos);
    EXPECT_NE(text.find("3 claim(s), 2 pending"), std::string::npos);
    EXPECT_NE(text.find("{\"task\":2} -> worker w2"),
              std::string::npos);
    EXPECT_NE(text.find("dead), pending"), std::string::npos);
}

TEST(Status, ReclaimedTaskReportsTheLastClaimant)
{
    // Re-claiming a dead worker's task appends a new claim line; the
    // status must attribute the task to the latest claimant only.
    const std::string dir = tempPath("status_reclaim");
    const std::string fp =
        CampaignJournal::fingerprint("unit-test", unitConfig());
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        ASSERT_TRUE(w0.tryClaim(taskKey(0)));
    }
    const std::string claimsPath =
        (fs::path(dir) / "claims.jsonl").string();
    writeFile(claimsPath,
              readFile(claimsPath) + "{\"fingerprint\":\"" + fp +
                  "\",\"key\":{\"task\":0},\"worker\":\"w1\",\"pid\":" +
                  std::to_string(deadPid()) + "}\n");
    const CampaignStatus status = campaignStatus(dir);
    ASSERT_EQ(status.claims.size(), 1u);
    EXPECT_EQ(status.claims[0].worker, "w1");
    EXPECT_FALSE(status.claims[0].live);
}

TEST(Status, SingleFileJournalHasNoClaims)
{
    // A single-process run journals into one driver file and never
    // claims.
    const std::string path = tempPath("status_file.dir");
    {
        CampaignJournal journal(path, "unit-test", unitConfig());
        journal.record(taskKey(0), Json(0));
        journal.record(taskKey(0), Json(1));  // duplicate key
        journal.record(taskKey(1), Json(2));
    }
    const CampaignStatus status = campaignStatus(path);
    EXPECT_EQ(status.campaign, "unit-test");
    EXPECT_EQ(status.records, 3u);
    EXPECT_EQ(status.distinctKeys, 2u);
    ASSERT_EQ(status.workers.size(), 1u);
    EXPECT_EQ(status.workers[0].file, "journal.driver.jsonl");
    EXPECT_EQ(status.workers[0].worker, "driver");
    EXPECT_EQ(status.workers[0].records, 3u);
    EXPECT_TRUE(status.claims.empty());
    const std::string text = formatCampaignStatus(status);
    EXPECT_NE(text.find("2 distinct task(s) journaled (3 record(s) "
                        "across 1 file(s))"),
              std::string::npos);
    EXPECT_EQ(text.find("claim(s)"), std::string::npos);
}

TEST(Status, TornTailsAreSkippedNotFatal)
{
    // Status may race live appends: a torn final journal line and a
    // torn final claim line are both in-flight writes, not corruption.
    const std::string dir = tempPath("status_torn");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        ASSERT_TRUE(w0.tryClaim(taskKey(0)));
        w0.record(taskKey(0), Json(0));
    }
    const std::string journalPath =
        (fs::path(dir) / "journal.w0.jsonl").string();
    writeFile(journalPath, readFile(journalPath) + "{\"fingerp");
    const std::string claimsPath =
        (fs::path(dir) / "claims.jsonl").string();
    writeFile(claimsPath, readFile(claimsPath) + "{\"fingerp");
    const CampaignStatus status = campaignStatus(dir);
    EXPECT_EQ(status.records, 1u);
    ASSERT_EQ(status.claims.size(), 1u);
    EXPECT_TRUE(status.claims[0].completed);
}

TEST(StatusDeath, MissingAndMismatchedJournalsAreFatal)
{
    EXPECT_DEATH(campaignStatus(tempPath("status_missing")),
                 "no campaign journal");
    // Splice in a worker file from a differently-configured campaign.
    const std::string dir = tempPath("status_mixed");
    {
        CampaignJournal w0(dir, "unit-test", unitConfig(),
                           workerOptions(0));
        w0.record(taskKey(0), Json(0));
    }
    Json other = unitConfig();
    other["spliced"] = true;
    const std::string foreign = tempPath("status_mixed_src");
    {
        CampaignJournal w1(foreign, "unit-test", other,
                           workerOptions(1));
        w1.record(taskKey(1), Json(1));
    }
    fs::copy_file(fs::path(foreign) / "journal.w1.jsonl",
                  fs::path(dir) / "journal.w1.jsonl");
    EXPECT_DEATH(campaignStatus(dir),
                 "different 'unit-test' campaign configuration.*spliced");
}

// --------------------------------------------------------------------------
// The capstone: real forked worker processes, randomized SIGKILLs, and
// a merged resume that must be byte-identical to a clean run.
// --------------------------------------------------------------------------

/** Run one forked worker over @p spec in @p dir; never returns. */
[[noreturn]] void
workerMain(const std::string &dir, const SweepSpec &spec, int worker)
{
    CampaignJournal journal(dir, "sweep", configOf(spec),
                            workerOptions(worker));
    SweepRunner(1).run(spec, &journal);
    std::_Exit(0);
}

TEST(MultiProcessSweep, RandomlyKilledWorkersMergeBitIdentical)
{
    const SweepSpec spec = tinySpec();
    const std::string reference =
        artifactOf(spec, SweepRunner(1).run(spec));

    std::mt19937 rng(20260808);
    for (int trial = 0; trial < 3; ++trial) {
        const std::string dir =
            tempPath("mp_trial" + std::to_string(trial));
        constexpr int kWorkers = 3;
        std::vector<pid_t> pids;
        for (int w = 0; w < kWorkers; ++w) {
            const pid_t pid = fork();
            ASSERT_GE(pid, 0);
            if (pid == 0)
                workerMain(dir, spec, w);  // never returns
            pids.push_back(pid);
        }
        // SIGKILL one worker at a random moment — possibly mid-claim,
        // mid-simulation, or mid-append.
        const int victim = static_cast<int>(rng() % kWorkers);
        usleep(1000 * (rng() % 120));
        kill(pids[static_cast<std::size_t>(victim)], SIGKILL);
        for (const pid_t pid : pids) {
            int status = 0;
            ASSERT_EQ(waitpid(pid, &status, 0), pid);
            if (pid != pids[static_cast<std::size_t>(victim)]) {
                EXPECT_TRUE(WIFEXITED(status) &&
                            WEXITSTATUS(status) == 0)
                    << "surviving worker died, trial " << trial;
            }
        }
        // The merged resume completes whatever the victim dropped and
        // must reproduce the clean artifact byte-for-byte.
        std::vector<SimResult> results;
        {
            CampaignJournal merged(dir, "sweep", configOf(spec));
            results = SweepRunner(2).run(spec, &merged);
        }
        EXPECT_EQ(artifactOf(spec, results), reference)
            << "trial " << trial << " (killed w" << victim << ")";

        // And compaction of the survivor files round-trips.
        const CompactStats stats = compactCampaignJournal(dir);
        EXPECT_EQ(stats.recordsOut, spec.size());
        CampaignJournal compacted(dir, "sweep", configOf(spec));
        EXPECT_EQ(compacted.cachedCount(), spec.size());
        const auto again = SweepRunner(1).run(spec, &compacted);
        EXPECT_EQ(artifactOf(spec, again), reference);
    }
}

} // namespace
} // namespace aero
