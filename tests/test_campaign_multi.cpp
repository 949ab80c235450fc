/**
 * @file
 * Tests for the `aero-campaign/2` journal directory itself: the line
 * format pinned byte-for-byte, the refusal of files left by the removed
 * multi-process mode, the exclusive lock against a second live process,
 * the per-record fsync durability knob, and read-only status snapshots.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.hh"

namespace aero
{
namespace
{

namespace fs = std::filesystem;

std::string
tempPath(const std::string &name)
{
    const auto path = fs::path(::testing::TempDir()) / name;
    fs::remove_all(path);
    return path.string();
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
    config["what"] = "journal unit test";
    return config;
}

Json
taskKey(int task)
{
    Json key = Json::object();
    key["task"] = task;
    return key;
}

/** The journal file a directory-mode journal appends to. */
std::string
driverFile(const std::string &dir)
{
    return (fs::path(dir) / "journal.driver.jsonl").string();
}

// --------------------------------------------------------------------------
// One file per journal directory, one live process per journal.
// --------------------------------------------------------------------------

TEST(DirectoryJournalDeath, ForeignWorkerFileFailsTheMerge)
{
    // A per-worker journal, a compacted journal or the claims file of
    // the removed multi-process mode holds records this build cannot
    // merge: refuse to open the directory (read-write or read-only),
    // name the file, and leave it and the journal byte-for-byte
    // untouched.
    const std::string fp =
        CampaignJournal::fingerprint("unit-test", unitConfig());
    const std::string header =
        "{\"schema\":\"aero-campaign/2\",\"campaign\":\"unit-test\","
        "\"fingerprint\":\"" + fp + "\",\"worker\":\"w1\",\"config\":" +
        unitConfig().dump() + "}\n";
    const std::string record = "{\"fingerprint\":\"" + fp +
                               "\",\"key\":{\"task\":1},\"payload\":1}\n";
    const std::string claim = "{\"fingerprint\":\"" + fp +
                              "\",\"key\":{\"task\":2},\"worker\":\"w1\","
                              "\"pid\":1}\n";
    const std::pair<const char *, std::string> leftovers[] = {
        {"journal.w1.jsonl", header + record},
        {"journal.compacted.jsonl", header + record},
        {"claims.jsonl", claim},
    };
    for (const auto &[name, contents] : leftovers) {
        const std::string dir = tempPath("dir_leftover");
        {
            CampaignJournal journal(dir, "unit-test", unitConfig());
            journal.record(taskKey(0), Json(0));
        }
        const std::string journalBytes = readFile(driverFile(dir));
        const std::string leftover = (fs::path(dir) / name).string();
        writeFile(leftover, contents);
        const std::string expect =
            "holds '" + leftover + "', a file of the removed "
            "multi-process campaign mode";
        EXPECT_DEATH(CampaignJournal(dir, "unit-test", unitConfig()),
                     expect);
        EXPECT_DEATH(campaignStatus(dir), expect);
        EXPECT_EQ(readFile(leftover), contents) << name;
        EXPECT_EQ(readFile(driverFile(dir)), journalBytes) << name;
    }
}

TEST(DirectoryJournalDeath, LiveWorkerIdIsLocked)
{
    // A second live driver on the same directory is refused before it
    // touches the file: it would interleave torn lines into the first
    // one's append stream, and the first one's tail may be a record
    // still being written, not a torn one to truncate.
    const std::string dir = tempPath("dir_lock");
    {
        CampaignJournal held(dir, "unit-test", unitConfig());
        held.record(taskKey(0), Json(0));
        const std::string inFlight =
            readFile(driverFile(dir)) + "{\"fingerprint\":\"in-fl";
        writeFile(driverFile(dir), inFlight);
        EXPECT_DEATH(CampaignJournal(dir, "unit-test", unitConfig()),
                     "already open in another live process");
        EXPECT_EQ(readFile(driverFile(dir)), inFlight);
    }
    // The lock goes with its holder: the next open resumes.
    CampaignJournal next(dir, "unit-test", unitConfig());
    EXPECT_EQ(next.cachedCount(), 1u);
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
// Durability: the per-record fsync switch, AERO_JOURNAL_FSYNC.
// --------------------------------------------------------------------------

TEST(Durability, FsyncRecordsCountsEveryAppend)
{
    setenv("AERO_JOURNAL_FSYNC", "1", 1);
    const std::string path = tempPath("fsync.dir");
    CampaignJournal journal(path, "unit-test", unitConfig());
    unsetenv("AERO_JOURNAL_FSYNC");
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
        CampaignJournal journal(tempPath("envoff.dir"), "unit-test",
                                unitConfig());
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
// Status snapshots.
// --------------------------------------------------------------------------

TEST(Status, SingleFileJournalHasNoClaims)
{
    // A run journals into one driver file; the status reports its
    // campaign, fingerprint and record counts, and nothing else.
    const std::string path = tempPath("status_file.dir");
    {
        CampaignJournal journal(path, "unit-test", unitConfig());
        journal.record(taskKey(0), Json(0));
        journal.record(taskKey(0), Json(1));  // duplicate key
        journal.record(taskKey(1), Json(2));
    }
    const CampaignStatus status = campaignStatus(path);
    EXPECT_EQ(status.path, path);
    EXPECT_EQ(status.campaign, "unit-test");
    EXPECT_EQ(status.fingerprint,
              CampaignJournal::fingerprint("unit-test", unitConfig()));
    EXPECT_EQ(status.records, 3u);
    EXPECT_EQ(status.distinctKeys, 2u);
    EXPECT_EQ(formatCampaignStatus(status),
              "campaign 'unit-test' (aero-campaign/2) at " + path +
                  "\n  fingerprint " + status.fingerprint +
                  "\n  2 distinct task(s) journaled (3 record(s))\n");
}

TEST(Status, TornTailsAreSkippedNotFatal)
{
    // Status may race a live append: a torn final line is a write in
    // flight, not corruption, and a read-only open never truncates it.
    const std::string dir = tempPath("status_torn");
    {
        CampaignJournal journal(dir, "unit-test", unitConfig());
        journal.record(taskKey(0), Json(0));
    }
    const std::string torn = readFile(driverFile(dir)) + "{\"fingerp";
    writeFile(driverFile(dir), torn);
    const CampaignStatus status = campaignStatus(dir);
    EXPECT_EQ(status.records, 1u);
    EXPECT_EQ(status.distinctKeys, 1u);
    EXPECT_EQ(readFile(driverFile(dir)), torn);
}

TEST(StatusDeath, MissingAndMismatchedJournalsAreFatal)
{
    EXPECT_DEATH(campaignStatus(tempPath("status_missing")),
                 "no campaign journal");
    // Splice in a record stamped with a differently-configured
    // campaign's fingerprint.
    const std::string dir = tempPath("status_mixed");
    {
        CampaignJournal journal(dir, "unit-test", unitConfig());
        journal.record(taskKey(0), Json(0));
    }
    Json other = unitConfig();
    other["spliced"] = true;
    writeFile(driverFile(dir),
              readFile(driverFile(dir)) + "{\"fingerprint\":\"" +
                  CampaignJournal::fingerprint("unit-test", other) +
                  "\",\"key\":{\"task\":1},\"payload\":1}\n");
    EXPECT_DEATH(campaignStatus(dir),
                 "refusing to splice records from a different campaign");
}

} // namespace
} // namespace aero
