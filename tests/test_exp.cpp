/**
 * @file
 * Tests for the experiment API: the string-keyed EraseSchemeRegistry,
 * SweepBuilder grid expansion, SweepRunner thread-count determinism, the
 * JSON/CSV report serializers, and the hardened env parsing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "core/aero_scheme.hh"
#include "core/ept_builder.hh"
#include "devchar/experiments.hh"
#include "devchar/lifetime.hh"
#include "erase/scheme_registry.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "workload/presets.hh"

namespace aero
{
namespace
{

// --------------------------------------------------------------------------
// EraseSchemeRegistry
// --------------------------------------------------------------------------

TEST(SchemeRegistry, RoundTripsAllFiveSchemes)
{
    auto &reg = EraseSchemeRegistry::instance();
    ASSERT_EQ(reg.names().size(), 5u);
    for (const auto kind : allSchemes()) {
        const std::string name = schemeKindName(kind);
        EXPECT_TRUE(reg.contains(name)) << name;
        EXPECT_EQ(reg.kindOf(name), kind);
        EXPECT_EQ(reg.nameOf(kind), name);
        EXPECT_EQ(schemeKindFromName(name), kind);

        NandChip chip(ChipParams::tlc3d(), ChipGeometry{1, 4, 8}, 1);
        const auto scheme = reg.make(name, chip, SchemeOptions{});
        ASSERT_NE(scheme, nullptr);
        EXPECT_EQ(scheme->kind(), kind);
        const auto by_kind = reg.make(kind, chip, SchemeOptions{});
        EXPECT_EQ(by_kind->kind(), kind);
    }
}

TEST(SchemeRegistry, NamesInPaperComparisonOrder)
{
    const auto names = EraseSchemeRegistry::instance().names();
    const std::vector<std::string> expected = {
        "Baseline", "i-ISPE", "DPES", "AERO-CONS", "AERO"};
    EXPECT_EQ(names, expected);
}

TEST(SchemeRegistry, LookupTolleratesCaseAndSeparators)
{
    EXPECT_EQ(schemeKindFromName("baseline"), SchemeKind::Baseline);
    EXPECT_EQ(schemeKindFromName("aero"), SchemeKind::Aero);
    EXPECT_EQ(schemeKindFromName("AERO_CONS"), SchemeKind::AeroCons);
    EXPECT_EQ(schemeKindFromName("aero-cons"), SchemeKind::AeroCons);
    EXPECT_EQ(schemeKindFromName("iispe"), SchemeKind::IIspe);
    EXPECT_EQ(schemeKindFromName("dpes"), SchemeKind::Dpes);
}

TEST(SchemeRegistry, UnknownNameListsValidSchemes)
{
    EXPECT_DEATH(schemeKindFromName("sandisk-turbo"), "AERO-CONS");
    EXPECT_DEATH(schemeKindFromName(""), "Baseline");
}

TEST(SchemeRegistry, CompatFactoryStillWorks)
{
    NandChip chip(ChipParams::tlc3d(), ChipGeometry{1, 4, 8}, 1);
    const auto scheme =
        makeEraseScheme(SchemeKind::AeroCons, chip, SchemeOptions{});
    EXPECT_EQ(scheme->kind(), SchemeKind::AeroCons);
    const auto by_name = makeEraseScheme("AERO", chip, SchemeOptions{});
    EXPECT_EQ(by_name->kind(), SchemeKind::Aero);
}

TEST(Workloads, UnknownNameListsValidWorkloads)
{
    EXPECT_DEATH(workloadByName("not-a-trace"), "prxy");
}

// --------------------------------------------------------------------------
// Env parsing
// --------------------------------------------------------------------------

TEST(SimRequestsEnv, FallbackAndOverride)
{
    unsetenv("AERO_SIM_REQUESTS");
    EXPECT_EQ(defaultSimRequests(1234), 1234u);
    setenv("AERO_SIM_REQUESTS", "5000", 1);
    EXPECT_EQ(defaultSimRequests(1234), 5000u);
    unsetenv("AERO_SIM_REQUESTS");
}

TEST(SimRequestsEnv, RejectsMalformedValues)
{
    setenv("AERO_SIM_REQUESTS", "12k", 1);
    EXPECT_DEATH(defaultSimRequests(), "AERO_SIM_REQUESTS");
    setenv("AERO_SIM_REQUESTS", "", 1);
    EXPECT_DEATH(defaultSimRequests(), "AERO_SIM_REQUESTS");
    setenv("AERO_SIM_REQUESTS", "0", 1);
    EXPECT_DEATH(defaultSimRequests(), "AERO_SIM_REQUESTS");
    setenv("AERO_SIM_REQUESTS", "-5", 1);
    EXPECT_DEATH(defaultSimRequests(), "AERO_SIM_REQUESTS");
    unsetenv("AERO_SIM_REQUESTS");
}

TEST(SweepThreadsEnv, OverrideAndRejects)
{
    setenv("AERO_SWEEP_THREADS", "3", 1);
    EXPECT_EQ(sweepThreads(), 3);
    setenv("AERO_SWEEP_THREADS", "zero", 1);
    EXPECT_DEATH(sweepThreads(), "AERO_SWEEP_THREADS");
    setenv("AERO_SWEEP_THREADS", "0", 1);
    EXPECT_DEATH(sweepThreads(), "AERO_SWEEP_THREADS");
    unsetenv("AERO_SWEEP_THREADS");
    EXPECT_GE(sweepThreads(), 1);
}

// --------------------------------------------------------------------------
// SweepBuilder / SweepSpec expansion
// --------------------------------------------------------------------------

TEST(SweepBuilder, ExpandsGridInDeclaredNestingOrder)
{
    const SweepSpec spec =
        SweepBuilder()
            .workloads({"prxy", "usr"})
            .schemes({SchemeKind::Baseline, SchemeKind::Aero})
            .pecs({500.0, 2500.0})
            .seeds({7, 1007})
            .requests(100)
            .build();
    ASSERT_EQ(spec.size(), 16u);
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 16u);

    // Innermost axis (seed) varies fastest...
    EXPECT_EQ(points[0].seed, 7u);
    EXPECT_EQ(points[1].seed, 1007u);
    EXPECT_EQ(points[0].scheme, SchemeKind::Baseline);
    EXPECT_EQ(points[2].scheme, SchemeKind::Aero);
    // ...then scheme, then workload, then (outermost) PEC.
    EXPECT_EQ(points[0].workload, "prxy");
    EXPECT_EQ(points[4].workload, "usr");
    EXPECT_EQ(points[0].pec, 500.0);
    EXPECT_EQ(points[8].pec, 2500.0);
    for (const auto &pt : points)
        EXPECT_EQ(pt.requests, 100u);

    // index() agrees with expand() for every point.
    for (std::size_t pi = 0; pi < 2; ++pi) {
        for (std::size_t wi = 0; wi < 2; ++wi) {
            for (std::size_t si = 0; si < 2; ++si) {
                for (std::size_t se = 0; se < 2; ++se) {
                    const auto &pt =
                        points[spec.index(pi, 0, wi, si, 0, 0, se)];
                    EXPECT_EQ(pt.pec, spec.pecs[pi]);
                    EXPECT_EQ(pt.workload, spec.workloads[wi]);
                    EXPECT_EQ(pt.scheme, spec.schemes[si]);
                    EXPECT_EQ(pt.seed, spec.seeds[se]);
                }
            }
        }
    }
}

TEST(SweepBuilder, SingularSettersCollapseAxes)
{
    const SweepSpec spec = SweepBuilder()
                               .workload("hm")
                               .scheme(SchemeKind::Dpes)
                               .pec(4500.0)
                               .suspension(SuspensionMode::None)
                               .mispredictionRate(0.05)
                               .rberRequirement(31)
                               .seed(42)
                               .requests(10)
                               .build();
    ASSERT_EQ(spec.size(), 1u);
    const auto pt = spec.expand().front();
    EXPECT_EQ(pt.workload, "hm");
    EXPECT_EQ(pt.scheme, SchemeKind::Dpes);
    EXPECT_EQ(pt.pec, 4500.0);
    EXPECT_EQ(pt.suspension, SuspensionMode::None);
    EXPECT_EQ(pt.mispredictionRate, 0.05);
    EXPECT_EQ(pt.rberRequirement, 31);
    EXPECT_EQ(pt.seed, 42u);
}

TEST(SweepBuilder, RepeatsMatchTheBenchSeedIdiom)
{
    const SweepSpec spec = SweepBuilder().repeats(3).build();
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{7, 1007, 2007}));
}

TEST(SweepBuilder, SchemeNamesResolveThroughRegistry)
{
    const SweepSpec spec =
        SweepBuilder().schemeNames({"baseline", "AERO"}).build();
    EXPECT_EQ(spec.schemes,
              (std::vector<SchemeKind>{SchemeKind::Baseline,
                                       SchemeKind::Aero}));
}

TEST(SweepBuilder, RejectsIllFormedGrids)
{
    EXPECT_DEATH(SweepBuilder().workloads({}).build(), "no workloads");
    EXPECT_DEATH(SweepBuilder().schemes({}).build(), "no schemes");
    EXPECT_DEATH(SweepBuilder().requests(0).build(), "zero requests");
    EXPECT_DEATH(SweepBuilder().workload("bogus").build(), "unknown");
}

TEST(SweepSpec, AllTable3AllSchemesPaperGridSize)
{
    const SweepSpec spec = SweepBuilder()
                               .allTable3Workloads()
                               .allSchemes()
                               .paperPecs()
                               .build();
    EXPECT_EQ(spec.size(), 11u * 5u * 3u);
}

// --------------------------------------------------------------------------
// SweepRunner
// --------------------------------------------------------------------------

SweepSpec
tinySweep()
{
    SsdConfig base = SsdConfig::tiny();
    return SweepBuilder()
        .workloads({"prxy", "hm"})
        .schemes({SchemeKind::Baseline, SchemeKind::Aero})
        .pec(2500.0)
        .requests(1500)
        .baseConfig(base)
        .build();
}

TEST(SweepRunner, DeterministicAcrossThreadCounts)
{
    const SweepSpec spec = tinySweep();
    const auto serial = SweepRunner(1).run(spec);
    const auto parallel = SweepRunner(4).run(spec);
    ASSERT_EQ(serial.size(), spec.size());
    ASSERT_EQ(parallel.size(), spec.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].point.workload, parallel[i].point.workload);
        EXPECT_EQ(serial[i].point.scheme, parallel[i].point.scheme);
        EXPECT_EQ(serial[i].avgReadUs, parallel[i].avgReadUs);
        EXPECT_EQ(serial[i].avgWriteUs, parallel[i].avgWriteUs);
        EXPECT_EQ(serial[i].iops, parallel[i].iops);
        EXPECT_EQ(serial[i].p999Us, parallel[i].p999Us);
        EXPECT_EQ(serial[i].p9999Us, parallel[i].p9999Us);
        EXPECT_EQ(serial[i].p999999Us, parallel[i].p999999Us);
        EXPECT_EQ(serial[i].erases, parallel[i].erases);
        EXPECT_EQ(serial[i].writeAmplification,
                  parallel[i].writeAmplification);
    }
}

TEST(DevcharExperiments, ChipShardedDeterministicAcrossThreadCounts)
{
    // The golden gate assumes the chip-sharded campaign engine
    // (devchar/chip_shard.hh) folds records in the serial (pec, chip,
    // block) order for any pool size; pin that down at the unit level
    // for both a fig experiment and the EptBuilder campaign.
    FarmConfig fc;
    fc.numChips = 4;
    fc.blocksPerChip = 6;
    const std::vector<double> pecs = {1000.0, 2500.0};
    setenv("AERO_SWEEP_THREADS", "1", 1);
    const auto serial = runFig7Experiment(fc, pecs);
    setenv("AERO_SWEEP_THREADS", "4", 1);
    const auto parallel = runFig7Experiment(fc, pecs);
    // Restore the default before any assertion can return early, so a
    // failure here cannot leak a forced pool size into later tests.
    unsetenv("AERO_SWEEP_THREADS");
    EXPECT_EQ(serial.gammaEstimate, parallel.gammaEstimate);
    EXPECT_EQ(serial.deltaEstimate, parallel.deltaEstimate);
    ASSERT_EQ(serial.rows.size(), parallel.rows.size());
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
        EXPECT_EQ(serial.rows[i].nIspe, parallel.rows[i].nIspe);
        EXPECT_EQ(serial.rows[i].samples, parallel.rows[i].samples);
        EXPECT_EQ(serial.rows[i].maxFailByRemaining,
                  parallel.rows[i].maxFailByRemaining);
        EXPECT_EQ(serial.rows[i].meanFailByRemaining,
                  parallel.rows[i].meanFailByRemaining);
    }

    PopulationConfig pc;
    pc.numChips = 6;
    pc.geometry = ChipGeometry{1, 16, 8};
    pc.seed = 99;
    EptBuilderConfig bc;
    bc.blocksPerChip = 6;
    bc.pecPoints = {0, 1500, 3000};
    setenv("AERO_SWEEP_THREADS", "1", 1);
    ChipPopulation popSerial(pc);
    EptBuilder builderSerial(popSerial, bc);
    const Ept eptSerial = builderSerial.build();
    setenv("AERO_SWEEP_THREADS", "4", 1);
    ChipPopulation popParallel(pc);
    EptBuilder builderParallel(popParallel, bc);
    const Ept eptParallel = builderParallel.build();
    unsetenv("AERO_SWEEP_THREADS");
    EXPECT_EQ(builderSerial.measurements(),
              builderParallel.measurements());
    for (int row = 1; row <= Ept::kRows; ++row) {
        for (int rg = 0; rg < Ept::kRanges; ++rg) {
            EXPECT_EQ(eptSerial.consSlots(row, rg),
                      eptParallel.consSlots(row, rg));
            EXPECT_EQ(eptSerial.aggrSlots(row, rg),
                      eptParallel.aggrSlots(row, rg));
        }
    }
}

TEST(LifetimeTester, DeterministicAcrossThreadCounts)
{
    // The per-checkpoint farm loop is sharded chip-per-task; partials
    // fold in chip order, so 1 thread and 4 threads must agree exactly
    // (bit-for-bit), including the early-exit crossing checkpoint.
    LifetimeConfig cfg;
    cfg.farm.numChips = 4;
    cfg.farm.blocksPerChip = 5;
    cfg.maxPec = 1000;
    cfg.checkpointEvery = 250;
    cfg.threads = 1;
    const auto serial = LifetimeTester(cfg).run(SchemeKind::Aero);
    cfg.threads = 4;
    const auto parallel = LifetimeTester(cfg).run(SchemeKind::Aero);
    ASSERT_EQ(serial.curve.size(), parallel.curve.size());
    for (std::size_t i = 0; i < serial.curve.size(); ++i) {
        EXPECT_EQ(serial.curve[i].first, parallel.curve[i].first);
        EXPECT_EQ(serial.curve[i].second, parallel.curve[i].second);
    }
    EXPECT_EQ(serial.crossed, parallel.crossed);
    EXPECT_EQ(serial.lifetimePec, parallel.lifetimePec);
    EXPECT_EQ(serial.avgEraseLatencyMs, parallel.avgEraseLatencyMs);
    EXPECT_EQ(serial.avgLoops, parallel.avgLoops);
    EXPECT_EQ(serial.freshMrber, parallel.freshMrber);
}

TEST(SweepRunner, ProgressCoversEveryPointExactlyOnce)
{
    const SweepSpec spec = tinySweep();
    std::vector<int> seen(spec.size(), 0);
    std::size_t calls = 0;
    const auto points = spec.expand();
    SweepRunner(2).run(
        spec, {}, [&](std::size_t done, std::size_t total,
                      const SimResult &latest) {
            EXPECT_LE(done, total);
            EXPECT_EQ(total, points.size());
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (points[i].workload == latest.point.workload &&
                    points[i].scheme == latest.point.scheme)
                    seen[i] += 1;
            }
            calls += 1;
        });
    EXPECT_EQ(calls, spec.size());
    for (const int n : seen)
        EXPECT_EQ(n, 1);
}

TEST(ParallelMap, PreservesInputOrder)
{
    std::vector<int> items(37);
    for (std::size_t i = 0; i < items.size(); ++i)
        items[i] = static_cast<int>(i);
    const auto out =
        parallelMap(items, [](int v) { return v * v; }, 4);
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

// --------------------------------------------------------------------------
// Reports
// --------------------------------------------------------------------------

TEST(Json, SerializesScalarsArraysAndObjects)
{
    Json doc = Json::object();
    doc["text"] = "quote \" backslash \\ newline \n";
    doc["flag"] = true;
    doc["count"] = 42;
    doc["ratio"] = 0.5;
    doc["nothing"] = Json{};
    Json arr = Json::array();
    arr.push(1).push("two").push(3.0);
    doc["list"] = std::move(arr);
    EXPECT_EQ(doc.dump(),
              "{\"text\":\"quote \\\" backslash \\\\ newline \\n\","
              "\"flag\":true,\"count\":42,\"ratio\":0.5,\"nothing\":null,"
              "\"list\":[1,\"two\",3.0]}");
}

TEST(Json, LargeUnsignedValuesSurvive)
{
    Json doc = Json::array();
    doc.push(std::numeric_limits<std::uint64_t>::max());
    doc.push(std::uint64_t{7});
    EXPECT_EQ(doc.dump(), "[18446744073709551615,7]");
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    Json doc = Json::array();
    doc.push(std::numeric_limits<double>::infinity());
    doc.push(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(doc.dump(), "[null,null]");
}

TEST(Report, SweepReportHasStableKeysAndSpecOrder)
{
    const SweepSpec spec = SweepBuilder()
                               .workload("prxy")
                               .schemes({SchemeKind::Baseline,
                                         SchemeKind::Aero})
                               .requests(10)
                               .build();
    std::vector<SimResult> results(2);
    results[0].point = spec.expand()[0];
    results[0].avgReadUs = 100.0;
    results[1].point = spec.expand()[1];
    results[1].avgReadUs = 90.0;
    const std::string json = sweepReport(spec, results).dump();
    EXPECT_NE(json.find("\"schema\":\"aero-sweep/1\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"prxy\""), std::string::npos);
    EXPECT_NE(json.find("\"scheme\":\"Baseline\""), std::string::npos);
    EXPECT_NE(json.find("\"scheme\":\"AERO\""), std::string::npos);
    EXPECT_NE(json.find("\"p999999_us\""), std::string::npos);
    // Baseline row precedes the AERO row (spec order).
    EXPECT_LT(json.find("\"scheme\":\"Baseline\""),
              json.find("\"scheme\":\"AERO\""));

    const std::string csv = toCsv(results);
    EXPECT_EQ(csv.substr(0, 15), "workload,scheme");
    EXPECT_NE(csv.find("prxy,Baseline"), std::string::npos);
    EXPECT_NE(csv.find("prxy,AERO"), std::string::npos);
}

TEST(Report, SuspensionModeNamesRoundTrip)
{
    EXPECT_STREQ(suspensionModeName(SuspensionMode::None), "none");
    EXPECT_STREQ(suspensionModeName(SuspensionMode::MidSegment),
                 "mid-segment");
    EXPECT_EQ(suspensionModeFromName("none"), SuspensionMode::None);
    EXPECT_EQ(suspensionModeFromName("on"), SuspensionMode::MidSegment);
    EXPECT_DEATH(suspensionModeFromName("sometimes"), "mid-segment");
}

} // namespace
} // namespace aero
