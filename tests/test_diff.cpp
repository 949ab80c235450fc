/**
 * @file
 * Tests for the report-diff engine behind `aero_diff`: axis-keyed row
 * matching (reorders are not differences, missing rows are), exact
 * integer metrics vs toleranced floating-point metrics (including
 * exactly-at-tolerance), NaN/infinity handling, ignored keys at every
 * level, the `aero-sweep/1` key columns from the sweep-axis table, the
 * axes declaration as part of the schema, and the CLI's 0/1/2 exit
 * contract.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "exp/diff.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"

namespace aero
{
namespace
{

Json
doc(const std::string &text)
{
    return Json::parseOrDie(text, "test document");
}

/** How many key columns the axis table gives a sweep row. */
std::size_t
sweepColumnCount()
{
    return SimPoint::fields().size();
}

/** A small two-row aero-devchar/1 report. */
std::string
baseReport()
{
    return R"({"schema": "aero-devchar/1", "bench": "t",
               "axes": ["kind", "pec"],
               "spec": {"num_chips": 4},
               "results": [
                 {"kind": "a", "pec": 500, "iops": 100.0, "erases": 7},
                 {"kind": "a", "pec": 1000, "iops": 50.0, "erases": 9}
               ],
               "summary": {"gamma": 440.0}})";
}

TEST(DiffReports, IdenticalDocumentsMatch)
{
    const Json a = doc(baseReport());
    const auto result = diffReports(a, a);
    EXPECT_TRUE(result.match);
    EXPECT_TRUE(result.deltas.empty());
    EXPECT_EQ(result.rowsCompared, 2u);
    // 2 rows x {iops, erases} + summary gamma.
    EXPECT_EQ(result.metricsCompared, 5u);
    EXPECT_EQ(result.table(), "");
}

TEST(DiffReports, ReorderedRowsMatch)
{
    const Json a = doc(baseReport());
    Json b = doc(baseReport());
    // Rebuild with the rows swapped.
    Json swapped = Json::array();
    swapped.push(b.find("results")->at(1));
    swapped.push(b.find("results")->at(0));
    b["results"] = std::move(swapped);
    const auto result = diffReports(a, b);
    EXPECT_TRUE(result.match) << result.table();
}

TEST(DiffReports, MissingAndExtraRowsAreDeltas)
{
    const Json a = doc(baseReport());
    Json b = doc(baseReport());
    Json one = Json::array();
    one.push(b.find("results")->at(0));
    Json extra = Json::object();
    extra["kind"] = "a";
    extra["pec"] = 2000;
    extra["iops"] = 10.0;
    extra["erases"] = 1;
    one.push(std::move(extra));
    b["results"] = std::move(one);
    const auto result = diffReports(a, b);
    EXPECT_FALSE(result.match);
    ASSERT_EQ(result.deltas.size(), 2u);
    // Row only in A (pec=1000), then row only in B (pec=2000).
    EXPECT_EQ(result.deltas[0].what, "row");
    EXPECT_NE(result.deltas[0].row.find("pec=1000"), std::string::npos);
    EXPECT_EQ(result.deltas[0].b, "(absent)");
    EXPECT_EQ(result.deltas[1].what, "row");
    EXPECT_NE(result.deltas[1].row.find("pec=2000"), std::string::npos);
    EXPECT_EQ(result.deltas[1].a, "(absent)");
    EXPECT_NE(result.table().find("pec=2000"), std::string::npos);
}

TEST(DiffReports, FloatToleranceEdgeCases)
{
    const Json a = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "x": 1.0}]})");
    const Json b = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "x": 1.25}]})");
    DiffOptions opts;
    EXPECT_FALSE(diffReports(a, b, opts).match);
    // |1.25 - 1.0| = 0.25 exactly at the absolute tolerance: passes.
    opts.absTol = 0.25;
    EXPECT_TRUE(diffReports(a, b, opts).match);
    opts.absTol = 0.2499;
    EXPECT_FALSE(diffReports(a, b, opts).match);
    // Relative: 0.25/1.25 = 0.2 exactly at the tolerance: passes.
    opts.absTol = 0.0;
    opts.relTol = 0.2;
    EXPECT_TRUE(diffReports(a, b, opts).match);
    opts.relTol = 0.1999;
    const auto result = diffReports(a, b, opts);
    EXPECT_FALSE(result.match);
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_EQ(result.deltas[0].metric, "x");
    EXPECT_DOUBLE_EQ(result.deltas[0].absDelta, 0.25);
    EXPECT_DOUBLE_EQ(result.deltas[0].relDelta, 0.2);
}

TEST(DiffReports, IntegerMetricsIgnoreTolerances)
{
    const Json a = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "erases": 100}]})");
    const Json b = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "erases": 101}]})");
    DiffOptions opts;
    opts.absTol = 10.0;
    opts.relTol = 0.5;
    const auto result = diffReports(a, b, opts);
    EXPECT_FALSE(result.match);
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_DOUBLE_EQ(result.deltas[0].absDelta, 1.0);
    // But an integer against the same value as a double is no delta
    // (goldens store 5, a regenerated artifact may print 5.0).
    const Json c = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "erases": 100.0}]})");
    EXPECT_TRUE(diffReports(a, c).match);
}

TEST(DiffReports, NanAndInfinityPolicy)
{
    const double inf = std::numeric_limits<double>::infinity();
    const auto make = [](double x) {
        Json d = Json::object();
        d["schema"] = "s";
        Json axes = Json::array();
        axes.push("i");
        d["axes"] = std::move(axes);
        Json row = Json::object();
        row["i"] = 1;
        row["x"] = x;
        Json rows = Json::array();
        rows.push(std::move(row));
        d["results"] = std::move(rows);
        return d;
    };
    // In-memory documents can carry non-finite doubles directly.
    EXPECT_TRUE(diffReports(make(std::nan("")), make(std::nan(""))).match);
    EXPECT_TRUE(diffReports(make(inf), make(inf)).match);
    EXPECT_FALSE(diffReports(make(inf), make(-inf)).match);
    EXPECT_FALSE(diffReports(make(std::nan("")), make(1.0)).match);
    DiffOptions loose;
    loose.absTol = 1e300;
    EXPECT_FALSE(diffReports(make(inf), make(1.0), loose).match);
    // Serialized non-finite values become null; null==null matches and
    // null-vs-number is a type mismatch.
    const Json nan_doc =
        Json::parseOrDie(make(std::nan("")).dump(), "nan doc");
    EXPECT_TRUE(diffReports(nan_doc, nan_doc).match);
    const auto typed = diffReports(nan_doc, make(1.0));
    EXPECT_FALSE(typed.match);
    ASSERT_EQ(typed.deltas.size(), 1u);
    EXPECT_EQ(typed.deltas[0].what, "type");
}

TEST(DiffReports, MissingMetricIsADelta)
{
    const Json a = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "x": 1.0, "extra": 2.0}]})");
    const Json b = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "x": 1.0}]})");
    const auto result = diffReports(a, b);
    EXPECT_FALSE(result.match);
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_EQ(result.deltas[0].metric, "extra");
    EXPECT_EQ(result.deltas[0].what, "metric");
    EXPECT_EQ(result.deltas[0].b, "(absent)");
}

TEST(DiffReports, IgnoredKeysAreSkippedEverywhere)
{
    const Json a = doc(R"({"schema": "s", "axes": ["i"],
        "generated_at": "2026-07-30T10:00:00Z",
        "spec": {"host": "alpha", "chips": 4},
        "results": [{"i": 1, "x": 1.0, "elapsed_s": 1.5}]})");
    const Json b = doc(R"({"schema": "s", "axes": ["i"],
        "generated_at": "2026-07-30T11:11:11Z",
        "spec": {"host": "beta", "chips": 4},
        "results": [{"i": 1, "x": 1.0, "elapsed_s": 9.0}]})");
    EXPECT_FALSE(diffReports(a, b).match);
    DiffOptions opts;
    opts.ignoreKeys = {"generated_at", "host", "elapsed_s"};
    const auto result = diffReports(a, b, opts);
    EXPECT_TRUE(result.match) << result.table();
}

TEST(DiffReports, SchemaAndSpecChangesAreDeltas)
{
    const Json a = doc(baseReport());
    Json b = doc(baseReport());
    b["schema"] = "aero-devchar/2";
    b["spec"]["num_chips"] = 8;
    const auto result = diffReports(a, b);
    EXPECT_FALSE(result.match);
    ASSERT_GE(result.deltas.size(), 2u);
    EXPECT_EQ(result.deltas[0].metric, "schema");
    EXPECT_EQ(result.deltas[0].what, "schema");
    bool sawSpec = false;
    for (const auto &d : result.deltas)
        sawSpec = sawSpec || d.metric == "spec";
    EXPECT_TRUE(sawSpec);
}

TEST(DiffReports, SummaryUsesNumericTolerances)
{
    const Json a = doc(baseReport());
    Json b = doc(baseReport());
    b["summary"]["gamma"] = 440.1;
    EXPECT_FALSE(diffReports(a, b).match);
    DiffOptions opts;
    opts.relTol = 1e-3;
    EXPECT_TRUE(diffReports(a, b, opts).match);
}

TEST(DiffReports, DuplicateAxisKeysAreDeltas)
{
    const Json a = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "x": 1.0}, {"i": 1, "x": 2.0}]})");
    const auto result = diffReports(a, a);
    EXPECT_FALSE(result.match);
    for (const auto &d : result.deltas)
        EXPECT_EQ(d.what, "row");
}

TEST(DiffReports, SweepSchemaFallsBackToFixedAxes)
{
    const std::string sweep = R"({"schema": "aero-sweep/1",
        "spec": {"requests": 1000},
        "results": [
          {"workload": "prxy", "scheme": "Baseline", "pec": 500.0,
           "suspension": "mid-segment", "misprediction_rate": 0.0,
           "rber_requirement": 63, "requests": 1000, "seed": 7,
           "iops": 5000.0},
          {"workload": "prxy", "scheme": "AERO", "pec": 500.0,
           "suspension": "mid-segment", "misprediction_rate": 0.0,
           "rber_requirement": 63, "requests": 1000, "seed": 7,
           "iops": 6000.0}
        ]})";
    const Json a = doc(sweep);
    EXPECT_EQ(reportAxes(a).size(), sweepColumnCount());
    EXPECT_EQ(sweepColumnCount(), 10u);
    Json b = doc(sweep);
    Json swapped = Json::array();
    swapped.push(b.find("results")->at(1));
    swapped.push(b.find("results")->at(0));
    b["results"] = std::move(swapped);
    EXPECT_TRUE(diffReports(a, b).match);
    // And a changed metric is still caught, keyed by the sweep axes.
    std::string drifted = sweep;
    drifted.replace(drifted.find("6000.0"), 6, "6001.0");
    const auto result = diffReports(a, doc(drifted));
    EXPECT_FALSE(result.match);
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_EQ(result.deltas[0].metric, "iops");
    EXPECT_NE(result.deltas[0].row.find("scheme=\"AERO\""),
              std::string::npos);
}

/**
 * Unsimulated result rows of a sweep over the two optional axes (GC
 * policy, wear leveling): four rows that differ only there.
 */
std::vector<SimResult>
optionalAxesSweep(SweepSpec *spec)
{
    spec->gcPolicies = {GcPolicy::Greedy, GcPolicy::FifoLog};
    spec->wearLevels = {WearLevel::None, WearLevel::Dynamic};
    std::vector<SimResult> results;
    for (const SimPoint &pt : spec->expand()) {
        SimResult r;
        r.point = pt;
        r.iops = 1000.0 + static_cast<double>(results.size());
        results.push_back(r);
    }
    return results;
}

TEST(DiffReports, SweepRowsAreKeyedByTheOptionalAxesToo)
{
    // Regression: aero-sweep/1 rows were keyed by eight columns that
    // left out the optional gc_policy and wear_level, so a self-diff of
    // such a sweep reported duplicate-key row deltas.
    SweepSpec spec;
    const auto results = optionalAxesSweep(&spec);
    const Json report = sweepReport(spec, results);
    const DiffResult result = diffReports(report, report);
    EXPECT_TRUE(result.match) << result.table();
    EXPECT_EQ(result.rowsCompared, results.size());
}

TEST(DiffReports, PositionalFallbackWithoutAxes)
{
    const Json a = doc(R"({"schema": "unknown/1",
        "results": [{"x": 1.0}, {"x": 2.0}]})");
    const Json b = doc(R"({"schema": "unknown/1",
        "results": [{"x": 2.0}, {"x": 1.0}]})");
    // Without axes rows pair up by position, so a reorder IS a diff.
    EXPECT_FALSE(diffReports(a, b).match);
    EXPECT_TRUE(diffReports(a, a).match);
    const Json c = doc(R"({"schema": "unknown/1",
        "results": [{"x": 1.0}]})");
    const auto result = diffReports(a, c);
    EXPECT_FALSE(result.match);
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_EQ(result.deltas[0].what, "row");
}

TEST(DiffReports, NonArrayResultsIsADelta)
{
    const Json a = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "x": 1.0}]})");
    const Json b = doc(R"({"schema": "s", "axes": ["i"],
        "results": null})");
    const auto result = diffReports(a, b);
    EXPECT_FALSE(result.match);
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_EQ(result.deltas[0].metric, "results");
    // Absent on both sides (a summary-only document) is fine.
    const Json c = doc(R"({"schema": "s", "summary": {"x": 1.0}})");
    EXPECT_TRUE(diffReports(c, c).match);
}

TEST(DiffReports, IgnoredAxisKeyDropsOutOfRowIdentity)
{
    const Json a = doc(R"({"schema": "s", "axes": ["i", "seed"],
        "results": [{"i": 1, "seed": 7, "x": 1.0}]})");
    const Json b = doc(R"({"schema": "s", "axes": ["i", "seed"],
        "results": [{"i": 1, "seed": 1007, "x": 1.0}]})");
    // Without --ignore the seeds keep the rows from pairing up.
    EXPECT_FALSE(diffReports(a, b).match);
    DiffOptions opts;
    opts.ignoreKeys = {"seed"};
    EXPECT_TRUE(diffReports(a, b, opts).match);
}

TEST(DiffReports, MalformedShapesAreDeltasNotCrashes)
{
    // Non-string axes entries are skipped; non-object rows are row
    // deltas — a diff tool must diagnose a broken artifact, not abort.
    const Json a = doc(R"({"schema": "s", "axes": [1, "i"],
        "results": [{"i": 1, "x": 1.0}]})");
    EXPECT_EQ(reportAxes(a).size(), 1u);
    EXPECT_TRUE(diffReports(a, a).match);
    const Json b = doc(R"({"schema": "s", "axes": ["i"],
        "results": [[1, 2]]})");
    const auto result = diffReports(b, b);
    EXPECT_FALSE(result.match);
    for (const auto &d : result.deltas) {
        EXPECT_EQ(d.what, "row");
    }
}

TEST(DiffReports, AxesDeclarationIsPartOfTheSchema)
{
    // The axes declaration decides how rows pair up; dropping, adding
    // or changing it is a schema delta, in both directions.
    const auto report = [](const char *axes) {
        return doc(detail::concat(R"({"schema": "aero-devchar/1", )",
                                  axes,
                                  R"( "results": [{"pec": 500, "x": 1.0}]})"));
    };
    const Json keyed = report(R"("axes": ["pec"],)");
    const Json unkeyed = report("");
    const Json mixed = report(R"("axes": [1, "pec"],)");
    for (const Json *other : {&unkeyed, &mixed}) {
        for (const auto &result :
             {diffReports(keyed, *other), diffReports(*other, keyed)}) {
            EXPECT_FALSE(result.match);
            ASSERT_EQ(result.deltas.size(), 1u) << result.table();
            EXPECT_EQ(result.deltas[0].metric, "axes");
            EXPECT_EQ(result.deltas[0].what, "schema");
        }
    }

    // Entries named by --ignore drop out of the declaration first.
    const Json seeded = report(R"("axes": ["pec", "seed"],)");
    EXPECT_FALSE(diffReports(keyed, seeded).match);
    DiffOptions opts;
    opts.ignoreKeys = {"seed"};
    EXPECT_TRUE(diffReports(keyed, seeded, opts).match);
}

TEST(DiffReports, TableClipsOversizedCellsToWholeLines)
{
    // A missing row dumps the whole row object into one cell; the
    // table must stay line-structured with every line terminated.
    Json row = Json::object();
    row["i"] = 1;
    for (int m = 0; m < 30; ++m)
        row["metric_with_a_long_name_" + std::to_string(m)] = 0.125 * m;
    Json a = Json::object();
    a["schema"] = "s";
    Json axes = Json::array();
    axes.push("i");
    a["axes"] = std::move(axes);
    Json rows = Json::array();
    rows.push(std::move(row));
    a["results"] = std::move(rows);
    Json b = a;
    b["results"] = Json::array();
    const auto result = diffReports(a, b);
    ASSERT_EQ(result.deltas.size(), 1u);
    const std::string table = result.table();
    ASSERT_FALSE(table.empty());
    EXPECT_EQ(table.back(), '\n');
    std::size_t lines = 0, start = 0;
    for (std::size_t end; (end = table.find('\n', start)) !=
                          std::string::npos; start = end + 1) {
        EXPECT_LT(end - start, 200u);  // clipped, not sprawling
        lines += 1;
    }
    EXPECT_EQ(lines, 3u);  // header + separator + one delta row
    EXPECT_NE(table.find("..."), std::string::npos);
}

TEST(DiffReports, TableListsEveryColumnAndTruncates)
{
    const Json a = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "x": 1.0, "y": 2.0, "z": 3.0}]})");
    const Json b = doc(R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "x": 1.5, "y": 2.5, "z": 3.5}]})");
    const auto result = diffReports(a, b);
    ASSERT_EQ(result.deltas.size(), 3u);
    const std::string full = result.table();
    EXPECT_NE(full.find("abs-delta"), std::string::npos);
    EXPECT_NE(full.find("i=1"), std::string::npos);
    EXPECT_NE(full.find(" y "), std::string::npos);
    const std::string truncated = result.table(2);
    EXPECT_NE(truncated.find("and 1 more"), std::string::npos);
}

// --------------------------------------------------------------------------
// The exit-code contract via the installed CLI. AERO_DIFF_BIN is
// injected by CMake when the aero_diff example target is built.
// --------------------------------------------------------------------------

#ifdef AERO_DIFF_BIN

int
runAeroDiff(const std::string &args)
{
    const std::string cmd = std::string(AERO_DIFF_BIN) + " " + args +
                            " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WEXITSTATUS(status);
}

TEST(DiffCli, ExitCodeContract)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "diff_cli";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto write = [&](const char *name, const std::string &text) {
        std::ofstream(dir / name, std::ios::binary) << text;
        return (dir / name).string();
    };
    const auto report = [](double m) {
        return detail::concat(
            R"({"schema": "aero-devchar/1", "axes": ["i"],)",
            R"( "results": [{"i": 1, "m": )", m, "}]}");
    };
    const std::string a = write("a.json", report(1.0));
    const std::string same = write("same.json", report(1.0));
    const std::string drifted = write("drifted.json", report(1.5));
    const std::string broken = write("broken.json", "{broken");

    EXPECT_EQ(runAeroDiff(a + " " + same), 0);
    EXPECT_EQ(runAeroDiff(a + " " + drifted), 1);
    EXPECT_EQ(runAeroDiff(a + " " + drifted + " --rel-tol 0.5"), 0);

    // 2: unparseable file, missing operand, directory operand.
    EXPECT_EQ(runAeroDiff(a + " " + broken), 2);
    EXPECT_EQ(runAeroDiff(a), 2);
    EXPECT_EQ(runAeroDiff(a + " " + dir.string()), 2);

    // 2: a non-finite tolerance would let every drift pass.
    for (const char *tol : {"--rel-tol inf", "--abs-tol 1e999",
                            "--rel-tol nan", "--abs-tol -1"}) {
        EXPECT_EQ(runAeroDiff(a + " " + drifted + " " + tol), 2) << tol;
    }
}

TEST(DiffCli, AnAliasedPolicyReportMatchesItsCanonicalTwin)
{
    // Regression: `run_sweep --gc-policies fifo` and `fifo-log` run the
    // same simulation, but the alias's rows once carried "fifo", so
    // aero_diff found every row absent on the other side (exit 1).
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "diff_cli_alias";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto reportFor = [&](const char *gc_list) {
        SweepSpec spec;
        for (const SweepAxis &axis : sweepAxes()) {
            if (axis.id == Axis::GcPolicy)
                axis.parse(gc_list, spec);
        }
        std::vector<SimResult> results;
        for (const SimPoint &pt : spec.expand()) {
            SimResult r;
            r.point = pt;
            r.iops = 1000.0;
            results.push_back(r);
        }
        const auto path = dir / (std::string(gc_list) + ".json");
        writeJsonFile(path.string(), sweepReport(spec, results));
        return path.string();
    };
    EXPECT_EQ(runAeroDiff(reportFor("fifo") + " " + reportFor("fifo-log")),
              0);
}

#endif // AERO_DIFF_BIN

} // namespace
} // namespace aero
