/**
 * @file
 * Tests for the report-diff engine behind `aero_diff`: axis-keyed row
 * matching (reorders are not differences, missing rows are), exact
 * integer metrics vs toleranced floating-point metrics (including
 * exactly-at-tolerance), NaN/infinity handling, ignored keys at every
 * level, and the `aero-sweep/1` key columns from the sweep-axis table.
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
    std::size_t n = 0;
    forEachColumn(SimPoint{}, [&](const std::string &, Json, bool) {
        ++n;
    });
    return n;
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
    EXPECT_EQ(sweepColumnCount(), 11u);
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
 * Unsimulated result rows of a sweep over the three optional axes (GC
 * policy, wear leveling, SLO policy): eight rows that differ only there.
 */
std::vector<SimResult>
optionalAxesSweep(SweepSpec *spec)
{
    spec->gcPolicies = {"greedy", "fifo-log"};
    spec->wearLevels = {"none", "dynamic"};
    spec->sloPolicies = {"none", "throttle"};
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
    // left out gc_policy, wear_level and slo_policy, so a self-diff of
    // such a sweep reported duplicate-key row deltas.
    SweepSpec spec;
    const auto results = optionalAxesSweep(&spec);
    const Json report = sweepReport(spec, results);
    const DiffResult result = diffReports(report, report);
    EXPECT_TRUE(result.match) << result.table();
    EXPECT_EQ(result.rowsCompared, results.size());
}

TEST(CsvReports, SweepRowsAreKeyedByTheOptionalAxesToo)
{
    SweepSpec spec;
    const auto results = optionalAxesSweep(&spec);
    const Json report = csvToReport(toCsv(results));
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

// --------------------------------------------------------------------------
// CSV artifacts through the same matcher
// --------------------------------------------------------------------------

/** A two-row sweep-shaped CSV, as toCsv() writes it. */
std::string
sweepCsv()
{
    return "workload,scheme,pec,suspension,misprediction_rate,"
           "rber_requirement,requests,seed,iops,erases\n"
           "prxy,Baseline,500,mid-segment,0,63,1000,7,5000.25,11\n"
           "prxy,AERO,500,mid-segment,0,63,1000,7,6000.5,9\n";
}

TEST(CsvReports, CellsAreTypedLikeTheSerializers)
{
    const Json report = csvToReport(sweepCsv());
    EXPECT_EQ(report.find("schema")->asString(), "aero-csv/1");
    EXPECT_EQ(reportAxes(report).size(), sweepColumnCount());
    const Json &row = report.find("results")->at(0);
    EXPECT_TRUE(row.find("workload")->isString());
    EXPECT_TRUE(row.find("pec")->isIntegral());      // "500"
    EXPECT_TRUE(row.find("erases")->isIntegral());   // exact compare
    EXPECT_FALSE(row.find("iops")->isIntegral());    // "5000.25"
    EXPECT_TRUE(row.find("iops")->isNumeric());
    EXPECT_EQ(row.find("seed")->asUint64(), 7u);
}

TEST(CsvReports, IdenticalAndReorderedCsvsMatch)
{
    const Json a = csvToReport(sweepCsv());
    EXPECT_TRUE(diffReports(a, a).match);
    // Sweep-shaped CSVs are axis-keyed: a row reorder is not a diff.
    const std::string reordered =
        "workload,scheme,pec,suspension,misprediction_rate,"
        "rber_requirement,requests,seed,iops,erases\n"
        "prxy,AERO,500,mid-segment,0,63,1000,7,6000.5,9\n"
        "prxy,Baseline,500,mid-segment,0,63,1000,7,5000.25,11\n";
    EXPECT_TRUE(diffReports(a, csvToReport(reordered)).match);
}

TEST(CsvReports, FloatToleranceEdgesApply)
{
    const Json a = csvToReport(sweepCsv());
    std::string driftedText = sweepCsv();
    // iops 6000.5 -> 7500.625 (x1.25): abs delta 1500.125, rel delta
    // exactly 0.2 — both ends exactly representable.
    driftedText.replace(driftedText.find("6000.5"), 6, "7500.625");
    const Json b = csvToReport(driftedText);
    DiffOptions opts;
    EXPECT_FALSE(diffReports(a, b, opts).match);
    // Exactly at the absolute tolerance: passes; a hair under: fails.
    opts.absTol = 1500.125;
    EXPECT_TRUE(diffReports(a, b, opts).match);
    opts.absTol = 1500.0;
    EXPECT_FALSE(diffReports(a, b, opts).match);
    // Exactly at the relative tolerance: passes; under: fails.
    opts.absTol = 0.0;
    opts.relTol = 0.2;
    EXPECT_TRUE(diffReports(a, b, opts).match);
    opts.relTol = 0.1999;
    const auto result = diffReports(a, b, opts);
    EXPECT_FALSE(result.match);
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_EQ(result.deltas[0].metric, "iops");
    EXPECT_DOUBLE_EQ(result.deltas[0].absDelta, 1500.125);
    EXPECT_DOUBLE_EQ(result.deltas[0].relDelta, 0.2);
}

TEST(CsvReports, IntegerCellsCompareExactlyDespiteTolerances)
{
    const Json a = csvToReport(sweepCsv());
    std::string driftedText = sweepCsv();
    driftedText.replace(driftedText.find(",11\n"), 4, ",12\n");
    const Json b = csvToReport(driftedText);
    DiffOptions loose;
    loose.absTol = 100.0;
    loose.relTol = 0.5;
    const auto result = diffReports(a, b, loose);
    EXPECT_FALSE(result.match);
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_EQ(result.deltas[0].metric, "erases");
}

TEST(CsvReports, QuotedCellsAndCrlfParse)
{
    const std::string quoted =
        "name,note,x\r\n"
        "\"a,b\",\"says \"\"hi\"\"\",1.5\r\n"
        "plain,,2\r\n";
    const Json report = csvToReport(quoted);
    const Json &rows = *report.find("results");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows.at(0).find("name")->asString(), "a,b");
    EXPECT_EQ(rows.at(0).find("note")->asString(), "says \"hi\"");
    EXPECT_TRUE(rows.at(1).find("note")->isNull());
    // No sweep axis columns: rows match by position.
    EXPECT_TRUE(reportAxes(report).empty());
    EXPECT_TRUE(diffReports(report, report).match);
}

TEST(CsvReports, MalformedCsvDies)
{
    EXPECT_DEATH(csvToReport(""), "no header");
    EXPECT_DEATH(csvToReport("a,b\n1\n"), "has 1 cells");
    EXPECT_DEATH(csvToReport("a,b\n\"unterminated,1\n"),
                 "quoted cell");
}

TEST(CsvReports, NonFatalParserReportsErrors)
{
    // The variant aero_diff uses to map parse failures to exit code 2
    // (distinct from exit 1, "reports differ").
    Json doc;
    std::string error;
    EXPECT_FALSE(csvToReport("a,b\n1\n", &doc, &error));
    EXPECT_NE(error.find("has 1 cells"), std::string::npos);
    EXPECT_FALSE(csvToReport("", &doc, &error));
    EXPECT_NE(error.find("no header"), std::string::npos);
    error.clear();
    EXPECT_TRUE(csvToReport("a,b\n1,2\n", &doc, &error));
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(doc.find("results")->size(), 1u);
}

TEST(CsvReports, NegativeAndWhitespaceIntegerCellsNeverWrap)
{
    // Regression: strtoull accepts a (possibly whitespace-prefixed)
    // '-' sign by wrapping modulo 2^64, so a " -1" cell became
    // 18446744073709551615 and "passed" exact integer comparison.
    const Json report = csvToReport("x,y,z\n-42, -1,-0\n");
    const Json &row = report.find("results")->at(0);
    ASSERT_TRUE(row.find("x")->isIntegral());
    EXPECT_EQ(row.find("x")->asInt64(), -42);
    // A whitespace-prefixed numeral is not how any serializer writes
    // integers; it types as a double (and must never wrap).
    ASSERT_FALSE(row.find("y")->isIntegral());
    ASSERT_TRUE(row.find("y")->isNumeric());
    EXPECT_EQ(row.find("y")->asDouble(), -1.0);
    ASSERT_TRUE(row.find("z")->isIntegral());
    EXPECT_EQ(row.find("z")->asInt64(), 0);
}

TEST(CsvReports, IntegerOverflowIsAPositionedErrorNotADouble)
{
    // Regression: an out-of-range integer cell used to degrade
    // silently to a lossy double, letting a corrupted count pass the
    // exact-integer comparison. It must fail naming row and column.
    Json doc;
    std::string error;
    EXPECT_FALSE(csvToReport("erases,ok\n18446744073709551616,1\n",
                             &doc, &error));
    EXPECT_NE(error.find("row 2, column 1 ('erases')"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("overflows an unsigned 64-bit value"),
              std::string::npos)
        << error;

    error.clear();
    EXPECT_FALSE(csvToReport(
        "a,delta\n1,-9223372036854775809\n", &doc, &error));
    EXPECT_NE(error.find("row 2, column 2 ('delta')"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("overflows a signed 64-bit value"),
              std::string::npos)
        << error;

    // The fatal wrapper dies with the same positioned message.
    EXPECT_DEATH(csvToReport("erases\n18446744073709551616\n"),
                 "row 2, column 1 \\('erases'\\)");

    // The extremes themselves still parse exactly.
    const Json edge = csvToReport(
        "hi,lo\n18446744073709551615,-9223372036854775808\n");
    const Json &row = edge.find("results")->at(0);
    EXPECT_EQ(row.find("hi")->asUint64(), 18446744073709551615ull);
    EXPECT_EQ(row.find("lo")->asInt64(),
              std::numeric_limits<std::int64_t>::min());
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
// Directory mode: pair *.json/*.csv files by relative path, diff each
// pair, report unpaired files, and honor the 0/1/2 exit-code contract.
// --------------------------------------------------------------------------

/** A scratch A/B directory pair, deleted and recreated per test. */
struct DirPair
{
    std::filesystem::path a, b;

    explicit DirPair(const std::string &name)
    {
        const auto root =
            std::filesystem::path(::testing::TempDir()) / name;
        std::filesystem::remove_all(root);
        a = root / "a";
        b = root / "b";
        std::filesystem::create_directories(a);
        std::filesystem::create_directories(b);
    }

    void
    write(const std::filesystem::path &rel, const std::string &content,
          bool sideA, bool sideB) const
    {
        for (const auto &side : {sideA ? &a : nullptr,
                                 sideB ? &b : nullptr}) {
            if (!side)
                continue;
            const auto path = *side / rel;
            std::filesystem::create_directories(path.parent_path());
            std::ofstream out(path, std::ios::binary);
            out << content;
        }
    }
};

std::string
tinyReport(double iops)
{
    return detail::concat(
        R"({"schema": "aero-devchar/1", "bench": "t", "axes": ["i"],)",
        R"( "results": [{"i": 1, "iops": )", iops, "}]}");
}

TEST(DirDiff, MatchingTreesMatchIncludingNestedSubdirectories)
{
    const DirPair dirs("dirdiff_match");
    dirs.write("r1.json", tinyReport(10.0), true, true);
    dirs.write("nested/deep/r2.json", tinyReport(20.0), true, true);
    dirs.write("rows.csv", "i,iops\n1,10\n", true, true);
    dirs.write("README.txt", "not a report", true, false);  // ignored

    const auto result =
        diffReportDirs(dirs.a.string(), dirs.b.string());
    EXPECT_TRUE(result.match());
    EXPECT_EQ(result.exitCode(), 0);
    ASSERT_EQ(result.compared.size(), 3u);
    EXPECT_EQ(result.matched, 3u);
    EXPECT_EQ(result.compared[0].name, "nested/deep/r2.json");
    EXPECT_EQ(result.compared[1].name, "r1.json");
    EXPECT_EQ(result.compared[2].name, "rows.csv");
    EXPECT_TRUE(result.onlyA.empty());
    EXPECT_TRUE(result.onlyB.empty());
}

TEST(DirDiff, OneSidedFilesAreUnpairedAndFailTheGate)
{
    const DirPair dirs("dirdiff_unpaired");
    dirs.write("shared.json", tinyReport(1.0), true, true);
    dirs.write("gone.json", tinyReport(2.0), true, false);
    dirs.write("new.csv", "i,iops\n1,3\n", false, true);

    const auto result =
        diffReportDirs(dirs.a.string(), dirs.b.string());
    EXPECT_FALSE(result.match());
    EXPECT_EQ(result.exitCode(), 1);
    EXPECT_EQ(result.compared.size(), 1u);
    EXPECT_EQ(result.matched, 1u);
    ASSERT_EQ(result.onlyA.size(), 1u);
    EXPECT_EQ(result.onlyA[0], "gone.json");
    ASSERT_EQ(result.onlyB.size(), 1u);
    EXPECT_EQ(result.onlyB[0], "new.csv");
}

TEST(DirDiff, MixedJsonAndCsvPairsDiffThroughTheirOwnParsers)
{
    const DirPair dirs("dirdiff_mixed");
    dirs.write("doc.json", tinyReport(10.0), true, true);
    dirs.write("rows.csv", "i,iops\n1,10\n", true, false);
    dirs.write("rows.csv", "i,iops\n1,11\n", false, true);

    const auto result =
        diffReportDirs(dirs.a.string(), dirs.b.string());
    EXPECT_EQ(result.exitCode(), 1);
    ASSERT_EQ(result.compared.size(), 2u);
    EXPECT_TRUE(result.compared[0].diff.match) << "doc.json";
    EXPECT_FALSE(result.compared[1].diff.match) << "rows.csv";
    // The CSV delta rides the integer-exact comparison rules.
    ASSERT_EQ(result.compared[1].diff.deltas.size(), 1u);
    EXPECT_EQ(result.compared[1].diff.deltas[0].metric, "iops");
}

TEST(DirDiff, TolerancesApplyToEveryPairedFile)
{
    const DirPair dirs("dirdiff_tol");
    const char *base = R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "iops": 100.0}]})";
    const char *drifted = R"({"schema": "s", "axes": ["i"],
        "results": [{"i": 1, "iops": 100.00000001}]})";
    dirs.write("r.json", base, true, false);
    dirs.write("r.json", drifted, false, true);

    EXPECT_EQ(diffReportDirs(dirs.a.string(), dirs.b.string())
                  .exitCode(), 1);
    DiffOptions tol;
    tol.relTol = 1e-6;
    const auto result =
        diffReportDirs(dirs.a.string(), dirs.b.string(), tol);
    EXPECT_EQ(result.exitCode(), 0);
}

TEST(DirDiff, UnparseableFileIsAnErrorButOthersStillCompare)
{
    const DirPair dirs("dirdiff_error");
    dirs.write("ok.json", tinyReport(1.0), true, true);
    dirs.write("bad.json", tinyReport(2.0), true, false);
    dirs.write("bad.json", "{not json", false, true);

    const auto result =
        diffReportDirs(dirs.a.string(), dirs.b.string());
    EXPECT_TRUE(result.anyError);
    EXPECT_EQ(result.exitCode(), 2);
    ASSERT_EQ(result.compared.size(), 2u);
    EXPECT_FALSE(result.compared[0].loaded);
    EXPECT_NE(result.compared[0].error.find("bad.json"),
              std::string::npos);
    EXPECT_TRUE(result.compared[1].loaded);
    EXPECT_TRUE(result.compared[1].diff.match);
}

TEST(DirDiffDeath, NonDirectoryIsFatal)
{
    const DirPair dirs("dirdiff_nodir");
    EXPECT_DEATH(diffReportDirs(dirs.a.string(), "/no/such/dir"),
                 "not a directory");
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

TEST(DirDiffCli, ExitCodeContract)
{
    const DirPair dirs("dirdiff_cli");
    dirs.write("r.json", tinyReport(5.0), true, true);
    dirs.write("sub/s.csv", "i,iops\n1,5\n", true, true);

    // 0: matching trees.
    EXPECT_EQ(runAeroDiff(dirs.a.string() + " " + dirs.b.string()), 0);

    // 1: a metric drifted.
    dirs.write("r.json", tinyReport(6.0), false, true);
    EXPECT_EQ(runAeroDiff(dirs.a.string() + " " + dirs.b.string()), 1);

    // 1: unpaired file (content otherwise identical again).
    dirs.write("r.json", tinyReport(5.0), false, true);
    dirs.write("extra.json", tinyReport(1.0), false, true);
    EXPECT_EQ(runAeroDiff(dirs.a.string() + " " + dirs.b.string()), 1);
    std::filesystem::remove(dirs.b / "extra.json");
    EXPECT_EQ(runAeroDiff(dirs.a.string() + " " + dirs.b.string()), 0);

    // 2: unparseable artifact.
    dirs.write("r.json", "{broken", false, true);
    EXPECT_EQ(runAeroDiff(dirs.a.string() + " " + dirs.b.string()), 2);

    // 2: directory vs file.
    EXPECT_EQ(runAeroDiff(dirs.a.string() + " " +
                          (dirs.b / "sub/s.csv").string()), 2);

    // 2: missing operand.
    EXPECT_EQ(runAeroDiff(dirs.a.string()), 2);
}

#endif // AERO_DIFF_BIN

} // namespace
} // namespace aero
