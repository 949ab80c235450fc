/**
 * @file
 * Tests for journaled sweeps and the campaign journal under them: crash
 * recovery from torn journal tails, bit-identical resumed artifacts at 1
 * and 4 threads (in both directions across thread counts), every sweep
 * axis — SLO policy included — telling journal records apart, loud
 * fingerprint mismatches naming the offending spec field, and the
 * exhaustive SweepSpec::index()-vs-expand() cross-check over all ten
 * axes that every bench's printed table relies on.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "devchar/experiments.hh"
#include "exp/campaign.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "workload/presets.hh"

namespace aero
{
namespace
{

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

/** A fresh journal directory path (removed if a previous run left it). */
std::string
tempJournal(const std::string &name)
{
    const auto path =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(path);
    return path.string();
}

/** The file a single-process run appends to inside journal @p dir. */
std::string
driverFile(const std::string &dir)
{
    return (std::filesystem::path(dir) / "journal.driver.jsonl").string();
}

/** Open @p dir as the journal of a single-process `sweep` campaign. */
CampaignJournal
sweepJournal(const std::string &dir, const SweepSpec &spec)
{
    return CampaignJournal(dir, "sweep", configOf(spec));
}

/** The canonical artifact body two runs are compared by. */
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

/** Chop the last @p bytes off a file — a torn final write. */
void
tearTail(const std::string &path, std::uintmax_t bytes)
{
    const auto size = std::filesystem::file_size(path);
    ASSERT_GT(size, bytes);
    std::filesystem::resize_file(path, size - bytes);
}

/** Keep only the first @p n lines — a run killed between records. */
void
keepLines(const std::string &path, std::size_t n)
{
    const std::string text = readFile(path);
    std::size_t pos = 0;
    for (std::size_t line = 0; line < n; ++line) {
        pos = text.find('\n', pos);
        ASSERT_NE(pos, std::string::npos);
        pos += 1;
    }
    writeFile(path, text.substr(0, pos));
}

// --------------------------------------------------------------------------
// Crash recovery
// --------------------------------------------------------------------------

TEST(CheckpointResume, TornTailResumesBitIdentical)
{
    const SweepSpec spec = tinySpec();
    const std::string reference =
        artifactOf(spec, SweepRunner(1).run(spec));

    for (const int resumeThreads : {1, 4}) {
        const std::string path = tempJournal("torn.dir");
        {
            CampaignJournal journal = sweepJournal(path, spec);
            SweepRunner(1).run(spec, &journal);
        }
        // Tear the worker file mid-record, as a crash during the final
        // write would: the last record loses its tail.
        tearTail(driverFile(path), 41);
        CampaignJournal resumed = sweepJournal(path, spec);
        EXPECT_EQ(resumed.cachedCount(), spec.size() - 1);
        const auto results =
            SweepRunner(resumeThreads).run(spec, &resumed);
        EXPECT_EQ(artifactOf(spec, results), reference)
            << "resume at " << resumeThreads << " threads drifted";
    }
}

TEST(CheckpointResume, FullyJournaledRunSimulatesNothing)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tempJournal("full.dir");
    const std::string reference =
        artifactOf(spec, SweepRunner(1).run(spec));
    {
        CampaignJournal journal = sweepJournal(path, spec);
        SweepRunner(1).run(spec, &journal);
    }
    CampaignJournal reopened = sweepJournal(path, spec);
    EXPECT_EQ(reopened.cachedCount(), spec.size());
    std::size_t simulated = 0;
    const auto results = SweepRunner(4).run(
        spec, &reopened,
        [&](std::size_t, std::size_t, const SimResult &) {
            simulated += 1;
        });
    EXPECT_EQ(simulated, 0u);
    EXPECT_EQ(artifactOf(spec, results), reference);
}

TEST(CheckpointResume, ResumeAfterTruncationIsIdempotent)
{
    // Crash, resume, crash again, resume again: the journal must stay
    // parseable and the final artifact must still match the reference.
    const SweepSpec spec = tinySpec();
    const std::string path = tempJournal("twice.dir");
    const std::string reference =
        artifactOf(spec, SweepRunner(1).run(spec));
    {
        CampaignJournal journal = sweepJournal(path, spec);
        SweepRunner(1).run(spec, &journal);
    }
    tearTail(driverFile(path), 17);
    {
        CampaignJournal resumed = sweepJournal(path, spec);
        SweepRunner(1).run(spec, &resumed);
    }
    tearTail(driverFile(path), 23);
    CampaignJournal again = sweepJournal(path, spec);
    const auto results = SweepRunner(1).run(spec, &again);
    EXPECT_EQ(artifactOf(spec, results), reference);
}

// --------------------------------------------------------------------------
// Thread-count cross-resume
// --------------------------------------------------------------------------

TEST(CheckpointResume, CrossesThreadCountsInBothDirections)
{
    const SweepSpec spec = tinySpec();
    const std::string reference =
        artifactOf(spec, SweepRunner(1).run(spec));

    // A journal written under AERO_SWEEP_THREADS=4 resumes under =1,
    // and vice versa; both reproduce the uncheckpointed artifact.
    const std::pair<const char *, const char *> directions[] = {
        {"4", "1"}, {"1", "4"}};
    for (const auto &[writer, resumer] : directions) {
        const std::string path = tempJournal("cross.dir");
        setenv("AERO_SWEEP_THREADS", writer, 1);
        {
            CampaignJournal journal = sweepJournal(path, spec);
            SweepRunner().run(spec, &journal);
        }
        // Kill the run after two completed records (a 4-thread writer
        // journals in completion order, so these need not be the first
        // two points in spec order).
        keepLines(driverFile(path), 3);
        setenv("AERO_SWEEP_THREADS", resumer, 1);
        CampaignJournal resumed = sweepJournal(path, spec);
        EXPECT_EQ(resumed.cachedCount(), 2u);
        const auto results = SweepRunner().run(spec, &resumed);
        unsetenv("AERO_SWEEP_THREADS");
        EXPECT_EQ(artifactOf(spec, results), reference)
            << "journal written at " << writer
            << " threads, resumed at " << resumer;
    }
}

// --------------------------------------------------------------------------
// Fingerprint mismatches
// --------------------------------------------------------------------------

TEST(CheckpointFingerprint, ChangedRequestsDiesNamingRequests)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tempJournal("mismatch_requests.dir");
    {
        CampaignJournal journal = sweepJournal(path, spec);
        SweepRunner(1).run(spec, &journal);
    }
    SweepSpec changed = spec;
    changed.requests = 2000;
    EXPECT_DEATH(sweepJournal(path, changed),
                 "different 'sweep' campaign.*requests: 1500 vs 2000");
}

TEST(CheckpointFingerprint, ChangedAxisDiesNamingAxis)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tempJournal("mismatch_axis.dir");
    {
        CampaignJournal journal = sweepJournal(path, spec);  // header only
    }
    SweepSpec moreWorkloads = spec;
    moreWorkloads.workloads.push_back("usr");
    EXPECT_DEATH(sweepJournal(path, moreWorkloads),
                 "different 'sweep' campaign.*workloads");

    SweepSpec otherSchemes = spec;
    otherSchemes.schemes = {SchemeKind::Baseline, SchemeKind::Dpes};
    EXPECT_DEATH(sweepJournal(path, otherSchemes),
                 "different 'sweep' campaign.*schemes");

    SweepSpec otherSeeds = spec;
    otherSeeds.seeds = {11};
    EXPECT_DEATH(sweepJournal(path, otherSeeds),
                 "different 'sweep' campaign.*seeds");
}

TEST(CheckpointFingerprint, WrongSchemaDies)
{
    const std::string path = tempJournal("not_a_journal.dir");
    std::filesystem::create_directory(path);
    writeFile(driverFile(path),
              "{\"schema\":\"aero-sweep/1\",\"results\":[]}\n");
    EXPECT_DEATH(sweepJournal(path, tinySpec()),
                 "not an aero-campaign/2 journal");
}

TEST(CheckpointFingerprint, NonJournalFileIsNeverTruncated)
{
    // --checkpoint names a journal *directory*: pointing it at a regular
    // file — some precious data, an artifact, or a journal from the old
    // single-file format — has to fail loudly naming the path, never
    // truncate the file or write a header over it.
    const std::string oldJournal =
        "{\"schema\":\"aero-campaign/1\",\"campaign\":\"sweep\","
        "\"fingerprint\":\"0123456789abcdef\",\"config\":{}}\n";
    for (const std::string &contents :
         {std::string("my precious data, not a checkpoint"), oldJournal}) {
        const std::string path = tempJournal("precious.jsonl");
        writeFile(path, contents);
        EXPECT_DEATH(sweepJournal(path, tinySpec()),
                     "checkpoint '" + path +
                         "' exists and is not a journal directory");
        EXPECT_EQ(readFile(path), contents);
    }
}

TEST(CheckpointFingerprint, CorruptMidJournalDies)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tempJournal("corrupt.dir");
    {
        CampaignJournal journal = sweepJournal(path, spec);
        SweepRunner(1).run(spec, &journal);
    }
    // Damage a record in the middle: tolerance is for torn *tails*
    // only, anything else must fail loudly.
    std::string text = readFile(driverFile(path));
    const std::size_t mid = text.find("\n{") + 1;
    text[mid] = '#';
    writeFile(driverFile(path), text);
    EXPECT_DEATH(sweepJournal(path, spec), "corrupt");
}

TEST(CheckpointFingerprint, ForeignRecordFingerprintDies)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tempJournal("foreign.dir");
    {
        CampaignJournal journal = sweepJournal(path, spec);
        SweepRunner(1).run(spec, &journal);
    }
    // Splice a record stamped with another sweep's fingerprint.
    std::string text = readFile(driverFile(path));
    const std::size_t firstRecord = text.find("\n{") + 1;
    std::string forged = text.substr(firstRecord);
    forged = forged.substr(0, forged.find('\n') + 1);
    const std::size_t fpAt = forged.find("\"fingerprint\":\"") +
                             std::string("\"fingerprint\":\"").size();
    forged[fpAt] = forged[fpAt] == '0' ? '1' : '0';
    writeFile(driverFile(path), text + forged);
    EXPECT_DEATH(sweepJournal(path, spec),
                 "refusing to splice records from a different campaign");
}

// --------------------------------------------------------------------------
// SweepSpec::index() vs expand() — the invariant every bench's printed
// table depends on.
// --------------------------------------------------------------------------

TEST(SweepSpecIndex, AgreesWithExpandOverRandomizedGrids)
{
    std::mt19937 rng(20240731);
    const auto &table3 = table3Workloads();
    const std::vector<SchemeKind> schemePool = allSchemes();
    const std::vector<SuspensionMode> suspPool = {
        SuspensionMode::None, SuspensionMode::MidSegment};
    const std::vector<GcPolicy> gcPool = {
        GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::FifoLog};
    const std::vector<WearLevel> wearPool = {
        WearLevel::None, WearLevel::Static, WearLevel::Dynamic};

    for (int trial = 0; trial < 25; ++trial) {
        // A distinct prefix of each axis pool, randomized lengths.
        const auto len = [&](std::size_t max) {
            return 1 + rng() % max;
        };
        SweepSpec spec;
        spec.workloads.clear();
        for (std::size_t i = 0; i < len(4); ++i)
            spec.workloads.push_back(table3[i].name);
        spec.schemes.assign(schemePool.begin(),
                            schemePool.begin() +
                                static_cast<long>(len(schemePool.size())));
        spec.pecs.clear();
        for (std::size_t i = 0; i < len(3); ++i)
            spec.pecs.push_back(500.0 + 1000.0 * static_cast<double>(i));
        spec.suspensions.assign(
            suspPool.begin(),
            suspPool.begin() + static_cast<long>(len(2)));
        spec.mispredictionRates.clear();
        for (std::size_t i = 0; i < len(3); ++i)
            spec.mispredictionRates.push_back(0.05 *
                                              static_cast<double>(i));
        spec.rberRequirements.clear();
        for (std::size_t i = 0; i < len(3); ++i)
            spec.rberRequirements.push_back(63 - static_cast<int>(i));
        spec.gcPolicies.assign(
            gcPool.begin(),
            gcPool.begin() + static_cast<long>(len(gcPool.size())));
        spec.wearLevels.assign(
            wearPool.begin(),
            wearPool.begin() + static_cast<long>(len(wearPool.size())));
        spec.seeds.clear();
        for (std::size_t i = 0; i < len(3); ++i)
            spec.seeds.push_back(7 + 1000 * i);

        const auto points = spec.expand();
        ASSERT_EQ(points.size(), spec.size());
        // Decompose every flat position into per-axis indices with an
        // independent mixed-radix walk in the documented nesting order
        // (PEC outermost, seed fastest), then require index() to invert
        // it and expand() to have put the matching axis values there.
        enum { Pec, Susp, Wl, Scheme, Mis, Rber, Gc, Wear, Seed, N };
        const std::size_t sizes[N] = {
            spec.pecs.size(),          spec.suspensions.size(),
            spec.workloads.size(),     spec.schemes.size(),
            spec.mispredictionRates.size(),
            spec.rberRequirements.size(), spec.gcPolicies.size(),
            spec.wearLevels.size(),    spec.seeds.size()};
        for (std::size_t flat = 0; flat < points.size(); ++flat) {
            std::size_t ix[N];
            std::size_t rem = flat;
            for (int axis = N - 1; axis >= 0; --axis) {
                ix[axis] = rem % sizes[axis];
                rem /= sizes[axis];
            }
            // Named in shuffled order: index() must not care.
            ASSERT_EQ(spec.index({{Axis::Seed, ix[Seed]},
                                  {Axis::Workload, ix[Wl]},
                                  {Axis::Pec, ix[Pec]},
                                  {Axis::Scheme, ix[Scheme]},
                                  {Axis::WearLevel, ix[Wear]},
                                  {Axis::Suspension, ix[Susp]},
                                  {Axis::RberRequirement, ix[Rber]},
                                  {Axis::GcPolicy, ix[Gc]},
                                  {Axis::MispredictionRate, ix[Mis]}}),
                      flat)
                << "trial " << trial;
            const SimPoint &pt = points[flat];
            ASSERT_EQ(pt.pec, spec.pecs[ix[Pec]]);
            ASSERT_EQ(pt.suspension, spec.suspensions[ix[Susp]]);
            ASSERT_EQ(pt.workload, spec.workloads[ix[Wl]]);
            ASSERT_EQ(pt.scheme, spec.schemes[ix[Scheme]]);
            ASSERT_EQ(pt.mispredictionRate,
                      spec.mispredictionRates[ix[Mis]]);
            ASSERT_EQ(pt.rberRequirement,
                      spec.rberRequirements[ix[Rber]]);
            ASSERT_EQ(pt.gcPolicy, spec.gcPolicies[ix[Gc]]);
            ASSERT_EQ(pt.wearLevel, spec.wearLevels[ix[Wear]]);
            ASSERT_EQ(pt.seed, spec.seeds[ix[Seed]]);
        }
    }
}

// --------------------------------------------------------------------------
// Round-trip plumbing
// --------------------------------------------------------------------------

TEST(SimResultJson, RoundTripsExactly)
{
    SimResult r;
    r.point.workload = "prn";
    r.point.scheme = SchemeKind::Dpes;
    r.point.pec = 2500.0;
    r.point.suspension = SuspensionMode::None;
    r.point.mispredictionRate = 0.05;
    r.point.rberRequirement = 31;
    r.point.requests = 123456789;
    r.point.seed = 18446744073709551615ull;  // uint64 max survives
    r.avgReadUs = 101.375;
    r.avgWriteUs = 0.1;  // not exactly representable: dump/parse must
                         // still round-trip it bit-for-bit
    r.iops = 1.0 / 3.0;
    r.p999Us = 1e-300;
    r.p9999Us = 4.9e6;
    r.p999999Us = 123.456;
    r.erases = 42;
    r.avgEraseMs = 3.5;
    r.suspensions = 7;
    r.writeAmplification = 1.0000000000000002;

    const Json row = toJson(r);
    const Json reparsed = Json::parseOrDie(row.dump());
    const SimResult back = fromJson<SimResult>(reparsed);
    EXPECT_EQ(toJson(back).dump(), row.dump());
    EXPECT_EQ(back.point.seed, r.point.seed);
    EXPECT_EQ(back.avgWriteUs, r.avgWriteUs);
    EXPECT_EQ(back.iops, r.iops);
    EXPECT_EQ(back.p999Us, r.p999Us);
}

TEST(SimResultJson, MissingFieldDies)
{
    SimResult r;
    Json row = toJson(r);
    Json pruned = Json::object();
    for (std::size_t i = 0; i < row.size(); ++i) {
        const auto &[key, value] = row.member(i);
        if (key != "iops")
            pruned[key] = value;
    }
    EXPECT_DEATH(fromJson<SimResult>(pruned), "missing 'iops'");
}

// --------------------------------------------------------------------------
// The generic campaign journal every checkpointed campaign sits on.
// --------------------------------------------------------------------------

Json
campaignConfig(int chips = 4, int blocks = 8)
{
    Json config = Json::object();
    config["num_chips"] = chips;
    config["blocks_per_chip"] = blocks;
    Json pecs = Json::array();
    pecs.push(500.0);
    pecs.push(2500.0);
    config["pecs"] = std::move(pecs);
    return config;
}

Json
chipKey(int chip)
{
    Json key = Json::object();
    key["chip"] = chip;
    return key;
}

TEST(CampaignJournal, RecordsSurviveReopen)
{
    const std::string path = tempJournal("campaign_roundtrip.dir");
    Json payload = Json::object();
    payload["value"] = 0.1;  // must round-trip bit-for-bit
    payload["count"] = std::uint64_t{18446744073709551615ull};
    {
        CampaignJournal journal(path, "unit-test", campaignConfig());
        EXPECT_EQ(journal.cachedCount(), 0u);
        EXPECT_FALSE(journal.has(chipKey(0)));
        journal.record(chipKey(0), payload);
        journal.record(chipKey(3), Json(true));
        EXPECT_EQ(journal.cachedCount(), 2u);
    }
    CampaignJournal reopened(path, "unit-test", campaignConfig());
    EXPECT_EQ(reopened.cachedCount(), 2u);
    ASSERT_TRUE(reopened.has(chipKey(0)));
    ASSERT_TRUE(reopened.has(chipKey(3)));
    EXPECT_FALSE(reopened.has(chipKey(1)));
    EXPECT_EQ(reopened.cached(chipKey(0)).dump(), payload.dump());
    EXPECT_TRUE(reopened.cached(chipKey(3)).asBool());

    std::size_t visited = 0;
    reopened.forEachCached([&](const Json &key, const Json &) {
        EXPECT_TRUE(key.contains("chip"));
        visited += 1;
    });
    EXPECT_EQ(visited, 2u);
}

TEST(CampaignJournal, TornTailIsDroppedWithTheRestIntact)
{
    const std::string path = tempJournal("campaign_torn.dir");
    {
        CampaignJournal journal(path, "unit-test", campaignConfig());
        for (int c = 0; c < 4; ++c)
            journal.record(chipKey(c), Json(c));
    }
    tearTail(driverFile(path), 9);  // mid-way through the chip-3 record
    {
        CampaignJournal resumed(path, "unit-test", campaignConfig());
        EXPECT_EQ(resumed.cachedCount(), 3u);
        EXPECT_TRUE(resumed.has(chipKey(2)));
        EXPECT_FALSE(resumed.has(chipKey(3)));
        // Appending after the truncation keeps the journal parseable.
        resumed.record(chipKey(3), Json(3));
    }
    CampaignJournal again(path, "unit-test", campaignConfig());
    EXPECT_EQ(again.cachedCount(), 4u);
}

TEST(CampaignJournal, RandomizedCrashPointsAlwaysResume)
{
    // Crash battery: truncate a full worker file at arbitrary byte
    // offsets (any of which a SIGKILL mid-write could produce) and
    // require the loader to recover every intact record and never a
    // corrupt one.
    const std::string full = tempJournal("campaign_fuzz_full.dir");
    std::vector<std::uint64_t> recordEnds;  // byte offset after line i
    {
        CampaignJournal journal(full, "unit-test", campaignConfig());
        for (int c = 0; c < 6; ++c) {
            Json payload = Json::object();
            payload["mtbers"] = 2.5 + 0.125 * c;
            journal.record(chipKey(c), payload);
        }
    }
    const std::string text = readFile(driverFile(full));
    for (std::size_t pos = 0;
         (pos = text.find('\n', pos)) != std::string::npos; ++pos)
        recordEnds.push_back(pos + 1);
    ASSERT_EQ(recordEnds.size(), 7u);  // header + 6 records

    std::mt19937 rng(20260730);
    for (int trial = 0; trial < 60; ++trial) {
        // Any offset from just after the header to the full size.
        const auto lo = recordEnds.front();
        const std::uint64_t cut =
            lo + rng() % (text.size() - lo + 1);
        const std::string path = tempJournal("campaign_fuzz.dir");
        std::filesystem::create_directory(path);
        writeFile(driverFile(path), text.substr(0, cut));
        CampaignJournal resumed(path, "unit-test", campaignConfig());
        // Every record wholly before the cut must be recovered.
        std::size_t wholeRecords = 0;
        for (std::size_t i = 1; i < recordEnds.size(); ++i)
            wholeRecords += recordEnds[i] <= cut ? 1 : 0;
        EXPECT_EQ(resumed.cachedCount(), wholeRecords)
            << "cut at byte " << cut;
        for (std::size_t i = 0; i < wholeRecords; ++i) {
            ASSERT_TRUE(resumed.has(chipKey(static_cast<int>(i))));
            EXPECT_EQ(resumed.cached(chipKey(static_cast<int>(i)))
                          .get("mtbers")
                          .asDouble(),
                      2.5 + 0.125 * static_cast<double>(i));
        }
    }
}

TEST(CampaignJournal, DuplicateKeysLastWins)
{
    const std::string path = tempJournal("campaign_dup.dir");
    {
        CampaignJournal journal(path, "unit-test", campaignConfig());
        journal.record(chipKey(1), Json(1));
        journal.record(chipKey(1), Json(2));
        EXPECT_EQ(journal.cachedCount(), 1u);
        EXPECT_EQ(journal.cached(chipKey(1)).asInt64(), 2);
    }
    CampaignJournal reopened(path, "unit-test", campaignConfig());
    EXPECT_EQ(reopened.cachedCount(), 1u);
    EXPECT_EQ(reopened.cached(chipKey(1)).asInt64(), 2);
}

TEST(CampaignJournalDeath, OtherCampaignsJournalIsRejected)
{
    const std::string path = tempJournal("campaign_wrong_name.dir");
    {
        CampaignJournal journal(path, "fig07_failbits_vs_tep",
                                campaignConfig());
    }
    EXPECT_DEATH(CampaignJournal(path, "fig04_erase_latency_cdf",
                                 campaignConfig()),
                 "belongs to campaign 'fig07_failbits_vs_tep', "
                 "expected 'fig04_erase_latency_cdf'");
}

TEST(CampaignJournalDeath, ChangedConfigDiesNamingTheNestedField)
{
    const std::string path = tempJournal("campaign_config.dir");
    {
        CampaignJournal journal(path, "unit-test", campaignConfig());
    }
    EXPECT_DEATH(CampaignJournal(path, "unit-test",
                                 campaignConfig(/*chips=*/5)),
                 "different 'unit-test' campaign.*num_chips: 4 vs 5");

    // A mismatch inside a nested array names the element's path.
    Json changed = campaignConfig();
    Json pecs = Json::array();
    pecs.push(500.0);
    pecs.push(4500.0);
    changed["pecs"] = std::move(pecs);
    EXPECT_DEATH(
        CampaignJournal(path, "unit-test", std::move(changed)),
        "pecs\\[1\\]: 2500.0 vs 4500.0");
}

TEST(CampaignJournalDeath, MissingParentDirectoryNamesThePath)
{
    // Regression: a bad --checkpoint path must fail up front naming
    // the path and the missing directory, not as a raw stream error
    // after the campaign started.
    EXPECT_DEATH(CampaignJournal("no/such/dir/journal.dir",
                                 "unit-test", campaignConfig()),
                 "cannot create checkpoint 'no/such/dir/journal.dir':"
                 " parent directory 'no/such/dir' does not exist");
}

TEST(SweepCheckpointDeath, MissingParentDirectoryNamesThePath)
{
    EXPECT_DEATH(sweepJournal("nowhere/at/all/ck.dir", tinySpec()),
                 "parent directory 'nowhere/at/all' does not exist");
}

// --------------------------------------------------------------------------
// Devchar campaign resume: the chip-sharded engine behind figs. 4-11 /
// tab01 must reproduce its records bit-for-bit from a partial journal,
// at any thread count.
// --------------------------------------------------------------------------

/** Canonical rendering of a Fig7 result for bit-exact comparison. */
std::string
fig7Fingerprint(const Fig7Data &data)
{
    Json doc = Json::object();
    doc["gamma"] = data.gammaEstimate;
    doc["delta"] = data.deltaEstimate;
    Json rows = Json::array();
    for (const auto &row : data.rows) {
        Json r = Json::object();
        r["n_ispe"] = row.nIspe;
        Json maxes = Json::array();
        Json means = Json::array();
        Json counts = Json::array();
        for (int i = 0; i < 8; ++i) {
            maxes.push(row.maxFailByRemaining[i]);
            means.push(row.meanFailByRemaining[i]);
            counts.push(row.samples[i]);
        }
        r["max"] = std::move(maxes);
        r["mean"] = std::move(means);
        r["samples"] = std::move(counts);
        rows.push(std::move(r));
    }
    doc["rows"] = std::move(rows);
    return doc.dump();
}

TEST(DevcharCampaignResume, PartialJournalResumesBitIdentical)
{
    FarmConfig fc;
    fc.numChips = 4;
    fc.blocksPerChip = 6;
    const std::vector<double> pecs = {1500.0, 3500.0};
    const std::string reference =
        fig7Fingerprint(runFig7Experiment(fc, pecs));

    Json config = Json::object();
    config["what"] = "fig7 resume test";
    const std::string full = tempJournal("devchar_full.dir");
    {
        CampaignJournal journal(full, "fig7-test", config);
        const std::string journaled = fig7Fingerprint(
            runFig7Experiment(fc, pecs, {&journal}));
        EXPECT_EQ(journaled, reference);
        EXPECT_EQ(journal.cachedCount(),
                  static_cast<std::size_t>(fc.numChips));
    }
    const std::string fullText = readFile(driverFile(full));

    // Resume from every truncation prefix (complete records and torn
    // tails alike), across thread counts; the folded statistics must
    // be byte-identical each time.
    std::mt19937 rng(7);
    for (int trial = 0; trial < 8; ++trial) {
        const std::string path = tempJournal("devchar_part.dir");
        const std::size_t header = fullText.find('\n') + 1;
        const std::size_t cut =
            header + rng() % (fullText.size() - header + 1);
        std::filesystem::create_directory(path);
        writeFile(driverFile(path), fullText.substr(0, cut));
        const char *threads = trial % 2 ? "4" : "1";
        setenv("AERO_SWEEP_THREADS", threads, 1);
        CampaignJournal journal(path, "fig7-test", config);
        const std::string resumed = fig7Fingerprint(
            runFig7Experiment(fc, pecs, {&journal}));
        unsetenv("AERO_SWEEP_THREADS");
        EXPECT_EQ(resumed, reference)
            << "cut at " << cut << ", " << threads << " threads";
        EXPECT_EQ(journal.cachedCount(),
                  static_cast<std::size_t>(fc.numChips));
    }
}

TEST(DevcharCampaignResume, FullyJournaledRunRecomputesNothing)
{
    FarmConfig fc;
    fc.numChips = 3;
    fc.blocksPerChip = 4;
    const std::vector<double> pecs = {2500.0};
    Json config = Json::object();
    config["what"] = "fig7 cache test";
    const std::string path = tempJournal("devchar_cached.dir");
    std::string reference;
    {
        CampaignJournal journal(path, "fig7-test", config);
        reference =
            fig7Fingerprint(runFig7Experiment(fc, pecs, {&journal}));
    }
    // A fully journaled campaign decodes instead of measuring: a farm
    // with a *different seed* would measure different numbers, so a
    // byte-identical result proves nothing was recomputed.
    FarmConfig other = fc;
    other.seed = fc.seed + 999;
    CampaignJournal journal(path, "fig7-test", config);
    EXPECT_EQ(fig7Fingerprint(runFig7Experiment(other, pecs, {&journal})),
              reference);
}

} // namespace
} // namespace aero
