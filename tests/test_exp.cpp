/**
 * @file
 * Tests for the experiment API: the name tables of the closed policy
 * enums (common/names.hh), the sweep-axis table (expansion, named index(), validation, and every
 * axis through reports, journal keys and its run_sweep flag), SweepRunner
 * thread-count determinism, the JSON/CSV report serializers, and the
 * strict env and flag parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <ostream>

#include "core/aero_scheme.hh"
#include "core/ept_builder.hh"
#include "devchar/experiments.hh"
#include "devchar/lifetime.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "exp/diff.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "workload/presets.hh"

namespace aero
{
namespace
{

// --------------------------------------------------------------------------
// Name tables: every closed policy enum, one test battery
// --------------------------------------------------------------------------

/**
 * One enum's expected table: its canonical names in enumerator order and
 * some other spellings (case, separators, aliases) with the canonical
 * name each must resolve to. The enum itself is reached through the
 * shared lookup, type-erased to enumerator indices.
 */
struct NamedEnum
{
    std::string id;
    std::vector<std::string> canonical;
    std::vector<std::pair<std::string, std::string>> spellings;
    std::string what;
    std::function<std::string(int)> name;           //!< enumName()
    std::function<int(const std::string &)> parse;  //!< enumFromName()
    std::function<std::string()> listed;            //!< canonicalNames()
};

template <typename E>
NamedEnum
namedEnum(const char *id, std::vector<std::string> canonical,
          std::vector<std::pair<std::string, std::string>> spellings)
{
    return {id,
            std::move(canonical),
            std::move(spellings),
            nameTable(E{}).what,
            [](int i) { return enumName(static_cast<E>(i)); },
            [](const std::string &text) {
                return static_cast<int>(enumFromName<E>(text));
            },
            [] { return canonicalNames<E>(); }};
}

void
PrintTo(const NamedEnum &e, std::ostream *os)
{
    *os << e.id;
}

class NameTables : public ::testing::TestWithParam<NamedEnum>
{
};

INSTANTIATE_TEST_SUITE_P(
    Enums, NameTables,
    ::testing::Values(
        namedEnum<SchemeKind>(
            "SchemeKind", {"Baseline", "i-ISPE", "DPES", "AERO-CONS", "AERO"},
            {{"iispe", "i-ISPE"}, {"aero_cons", "AERO-CONS"},
             {"AeroCons", "AERO-CONS"}}),
        namedEnum<SuspensionMode>(
            "SuspensionMode", {"none", "mid-segment"},
            {{"off", "none"}, {"on", "mid-segment"},
             {"MidSegment", "mid-segment"}}),
        namedEnum<Arbitration>("Arbitration", {"legacy", "queued"},
                               {{"Queued", "queued"}}),
        namedEnum<SloPolicy>("SloPolicy",
                             {"none", "throttle", "wfq", "throttle+wfq"},
                             {{"Throttle+WFQ", "throttle+wfq"}}),
        namedEnum<GcPolicy>(
            "GcPolicy", {"greedy", "cost-benefit", "fifo-log"},
            {{"fifo", "fifo-log"}, {"cost_benefit", "cost-benefit"},
             {"FifoLog", "fifo-log"}}),
        namedEnum<WearLevel>("WearLevel", {"none", "static", "dynamic"},
                             {{"Dynamic", "dynamic"}})),
    [](const ::testing::TestParamInfo<NamedEnum> &info) {
        return info.param.id;
    });

TEST_P(NameTables, EveryEnumeratorRoundTripsItsCanonicalName)
{
    const NamedEnum &e = GetParam();
    std::string joined;
    for (std::size_t i = 0; i < e.canonical.size(); ++i) {
        const int value = static_cast<int>(i);
        EXPECT_EQ(e.name(value), e.canonical[i]);
        EXPECT_EQ(e.parse(e.canonical[i]), value);
        joined += (i ? ", " : "") + e.canonical[i];
    }
    // The table names no value past the last enumerator.
    EXPECT_EQ(e.name(static_cast<int>(e.canonical.size())), "unknown");
    EXPECT_EQ(e.listed(), joined);
}

TEST_P(NameTables, LookupFoldsCaseAndSeparatorsAndTakesAliases)
{
    const NamedEnum &e = GetParam();
    for (std::size_t i = 0; i < e.canonical.size(); ++i) {
        std::string shouted;
        for (const char c : e.canonical[i]) {
            shouted.push_back(c == '-' ? '_'
                                       : static_cast<char>(std::toupper(
                                             static_cast<unsigned char>(c))));
        }
        EXPECT_EQ(e.parse(shouted), static_cast<int>(i)) << shouted;
    }
    // Every other spelling resolves to the canonical name reports write.
    for (const auto &[spelling, canonical] : e.spellings)
        EXPECT_EQ(e.name(e.parse(spelling)), canonical) << spelling;
}

TEST_P(NameTables, UnknownOrEmptyNameDiesListingEveryCanonicalName)
{
    const NamedEnum &e = GetParam();
    std::string listed;
    for (const auto &name : e.canonical) {
        listed += listed.empty() ? "" : ", ";
        for (const char c : name) {
            if (c == '+')
                listed += '\\';
            listed += c;
        }
    }
    EXPECT_DEATH(e.parse("bogus"), "unknown " + e.what +
                                       ": 'bogus' \\(valid names: " +
                                       listed + "\\)");
    EXPECT_DEATH(e.parse(""), "'' \\(valid names: " + listed + "\\)");
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

TEST(SimRequestsEnv, RejectsLeadingWhitespaceAndSign)
{
    // strtoull skipped the blank and wrapped "-1" to 2^64-1.
    setenv("AERO_SIM_REQUESTS", " -1", 1);
    EXPECT_DEATH(defaultSimRequests(), "AERO_SIM_REQUESTS");
    setenv("AERO_SIM_REQUESTS", "+5", 1);
    EXPECT_DEATH(defaultSimRequests(), "AERO_SIM_REQUESTS");
    setenv("AERO_SIM_REQUESTS", " 5", 1);
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

TEST(SweepThreadsEnv, RejectsValuesOutsideInt)
{
    // 2^32 + 1 once truncated to a single thread.
    setenv("AERO_SWEEP_THREADS", "4294967297", 1);
    EXPECT_DEATH(sweepThreads(), "AERO_SWEEP_THREADS");
    setenv("AERO_SWEEP_THREADS", " 2", 1);
    EXPECT_DEATH(sweepThreads(), "AERO_SWEEP_THREADS");
    unsetenv("AERO_SWEEP_THREADS");
}

TEST(ParseDecimal, AcceptsOnlyBareDigitsInRange)
{
    EXPECT_EQ(parseDecimal<int>("42"), 42);
    EXPECT_EQ(parseDecimal<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(parseDecimal<std::uint64_t>("18446744073709551616"));
    EXPECT_FALSE(parseDecimal<int>("4294967359"));
    EXPECT_FALSE(parseDecimal<int>("-1"));
    EXPECT_FALSE(parseDecimal<int>("+1"));
    EXPECT_FALSE(parseDecimal<int>(" 1"));
    EXPECT_FALSE(parseDecimal<int>("1 "));
    EXPECT_FALSE(parseDecimal<int>(""));
}

// --------------------------------------------------------------------------
// SweepSpec expansion and the axis table
// --------------------------------------------------------------------------

TEST(SweepSpec, ExpandsGridInDeclaredNestingOrder)
{
    SweepSpec spec;
    spec.workloads = {"prxy", "usr"};
    spec.schemes = {SchemeKind::Baseline, SchemeKind::Aero};
    spec.pecs = {500.0, 2500.0};
    spec.seeds = {7, 1007};
    spec.requests = 100;
    spec.validate();
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
                    const auto &pt = points[spec.index(
                        {{Axis::Pec, pi}, {Axis::Workload, wi},
                         {Axis::Scheme, si}, {Axis::Seed, se}})];
                    EXPECT_EQ(pt.pec, spec.pecs[pi]);
                    EXPECT_EQ(pt.workload, spec.workloads[wi]);
                    EXPECT_EQ(pt.scheme, spec.schemes[si]);
                    EXPECT_EQ(pt.seed, spec.seeds[se]);
                }
            }
        }
    }
    // Omitted axes are at index 0.
    EXPECT_EQ(spec.index({}), 0u);
    EXPECT_EQ(spec.index({{Axis::Seed, 1}}), 1u);
}

TEST(SweepSpec, OneValuePerAxisIsOnePoint)
{
    SweepSpec spec;
    spec.workloads = {"hm"};
    spec.schemes = {SchemeKind::Dpes};
    spec.pecs = {4500.0};
    spec.suspensions = {SuspensionMode::None};
    spec.mispredictionRates = {0.05};
    spec.rberRequirements = {31};
    spec.seeds = {42};
    spec.requests = 10;
    spec.validate();
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

TEST(SweepSpec, IndexRejectsOutOfRangeAndRepeatedAxes)
{
    SweepSpec spec;
    spec.pecs = {500.0, 2500.0};
    EXPECT_DEATH(spec.index({{Axis::Pec, 2}}), "out of range");
    EXPECT_DEATH(spec.index({{Axis::Pec, 0}, {Axis::Pec, 1}}),
                 "named twice");
}

/** The table entry for @p id. */
const SweepAxis &
axisOf(Axis id)
{
    for (const SweepAxis &axis : sweepAxes()) {
        if (axis.id == id)
            return axis;
    }
    ADD_FAILURE() << "axis missing from the table";
    return sweepAxes().front();
}

TEST(SweepSpec, ValidateRejectsIllFormedGrids)
{
    const auto validated = [](auto edit) {
        SweepSpec spec;
        edit(spec);
        spec.validate();
    };
    EXPECT_DEATH(validated([](SweepSpec &s) { s.workloads.clear(); }),
                 "no workloads");
    EXPECT_DEATH(validated([](SweepSpec &s) { s.schemes.clear(); }),
                 "no schemes");
    EXPECT_DEATH(validated([](SweepSpec &s) { s.seeds.clear(); }),
                 "no seeds");
    EXPECT_DEATH(validated([](SweepSpec &s) { s.requests = 0; }),
                 "zero requests");
    EXPECT_DEATH(
        validated([](SweepSpec &s) { s.workloads = {"bogus"}; }),
        "unknown");
    // A repeated value would be two rows under one journal key. Values
    // compare as report columns, so aliases and spellings collide too.
    EXPECT_DEATH(validated([](SweepSpec &s) { s.pecs = {500.0, 500.0}; }),
                 "--pecs repeats 500");
    EXPECT_DEATH(
        validated([](SweepSpec &s) { s.workloads = {"prxy", "usr", "prxy"}; }),
        "--workloads repeats prxy");
    const auto parsed = [](Axis id, const char *list) {
        return [id, list](SweepSpec &s) { axisOf(id).parse(list, s); };
    };
    EXPECT_DEATH(validated(parsed(Axis::Scheme, "aero,AERO")),
                 "--schemes repeats AERO");
    EXPECT_DEATH(validated(parsed(Axis::GcPolicy, "fifo,fifo-log")),
                 "--gc-policies repeats fifo-log");
    EXPECT_DEATH(validated(parsed(Axis::Suspension, "on,mid-segment")),
                 "--suspensions repeats mid-segment");
    EXPECT_DEATH(validated(parsed(Axis::Pec, "500,500.0")),
                 "--pecs repeats 500");
    // Every point's drive passes SsdConfig::validate(): the base drive
    // keeps legacy arbitration, so its wfq policy cannot run.
    EXPECT_DEATH(validated([](SweepSpec &s) {
                     s.base.sloPolicy = SloPolicy::Wfq;
                 }),
                 "SLO policy 'wfq' needs queued channel arbitration");
}

TEST(SweepSpec, ConfigOfAndRunValidateBeforeSimulating)
{
    // fig16 declares its sweeps before a long lifetime stage: the
    // journal config (configOf) must already reject a bad grid.
    SweepSpec spec;
    spec.wearLevels = {WearLevel::Dynamic, WearLevel::Dynamic};
    EXPECT_DEATH(configOf(spec), "--wear-levels repeats dynamic");
    EXPECT_DEATH(SweepRunner(1).run(spec), "--wear-levels repeats dynamic");

    // A drive no point can run on dies before the first point is
    // simulated: the progress callback would die with its own message.
    SweepSpec slo;
    slo.base.sloPolicy = SloPolicy::Wfq;
    slo.requests = 500;
    ASSERT_EQ(slo.base.arbitration, Arbitration::Legacy);
    const char *needs_queued = "'wfq' needs queued channel arbitration";
    EXPECT_DEATH(configOf(slo), needs_queued);
    EXPECT_DEATH(SweepRunner(1).run(slo, {},
                                    [](std::size_t, std::size_t,
                                       const SimResult &) {
                                        AERO_FATAL("simulated a point");
                                    }),
                 needs_queued);
}

TEST(SweepSpec, AllTable3AllSchemesPaperGridSize)
{
    SweepSpec spec;
    spec.workloads.clear();
    for (const auto &w : table3Workloads())
        spec.workloads.push_back(w.name);
    spec.schemes = allSchemes();
    spec.pecs = paperPecPoints();
    EXPECT_EQ(spec.size(), 11u * 5u * 3u);
}

TEST(SweepAxis, TableCoversEveryAxisOnceInReportOrder)
{
    std::vector<std::string> columns;
    std::vector<bool> seen(kAxisCount, false);
    for (const SweepAxis &axis : sweepAxes()) {
        const auto k = static_cast<std::size_t>(axis.id);
        ASSERT_LT(k, kAxisCount);
        EXPECT_FALSE(seen[k]) << axis.column;
        seen[k] = true;
        columns.push_back(axis.column);
        // A default spec sweeps exactly the default point's value.
        const SweepSpec spec;
        ASSERT_EQ(axis.size(spec), 1u) << axis.column;
        SimPoint pt;
        axis.assign(spec, 0, pt);
        EXPECT_EQ(axis.get(pt), axis.defaultValue()) << axis.column;
    }
    EXPECT_EQ(sweepAxes().size(), kAxisCount);
    EXPECT_EQ(columns,
              (std::vector<std::string>{
                  "workload", "scheme", "pec", "suspension",
                  "misprediction_rate", "rber_requirement", "gc_policy",
                  "wear_level", "seed"}));
    EXPECT_EQ(axisOf(Axis::MispredictionRate).flag(),
              "--misprediction-rates");
}

TEST(SweepAxis, EveryAxisFlowsThroughKeysReportsAndItsFlag)
{
    // Two distinct values per axis, as run_sweep tokens.
    const std::pair<Axis, std::string> lists[] = {
        {Axis::Workload, "prxy,usr"},
        {Axis::Scheme, "Baseline,AERO"},
        {Axis::Pec, "500,2500.5"},
        {Axis::Suspension, "none,mid-segment"},
        {Axis::MispredictionRate, "0,0.05"},
        {Axis::RberRequirement, "63,31"},
        {Axis::GcPolicy, "greedy,fifo-log"},
        {Axis::WearLevel, "none,dynamic"},
        {Axis::Seed, "7,18446744073709551615"},
    };
    ASSERT_EQ(std::size(lists), kAxisCount);
    for (const auto &[id, list] : lists) {
        const SweepAxis &axis = axisOf(id);
        SCOPED_TRACE(axis.flag());
        SweepSpec spec;
        axis.parse(list, spec);
        spec.validate();
        ASSERT_EQ(axis.size(spec), 2u);
        ASSERT_EQ(spec.size(), 2u);

        std::vector<SimResult> results(2);
        for (std::size_t i = 0; i < 2; ++i) {
            results[i].point = spec.expand()[spec.index({{id, i}})];
            results[i].iops = 1000.0 + static_cast<double>(i);
        }
        // Distinct journal keys (the key is the point's report row).
        const Json key0 = toJson(results[0].point);
        const Json key1 = toJson(results[1].point);
        EXPECT_NE(key0.dump(), key1.dump());
        // The decoder restores the value exactly.
        for (const SimResult &r : results) {
            const SimResult back = fromJson<SimResult>(toJson(r));
            EXPECT_EQ(axis.get(back.point), axis.get(r.point));
            EXPECT_EQ(toJson(back).dump(), toJson(r).dump());
        }
        // A CSV column and an aero_diff key column.
        const std::string csv = toCsv(results);
        const std::string header = csv.substr(0, csv.find('\n'));
        EXPECT_NE(("," + header + ",").find("," + axis.column + ","),
                  std::string::npos)
            << header;
        const auto keys = reportAxes(sweepReport(spec, results));
        EXPECT_NE(std::find(keys.begin(), keys.end(), axis.column),
                  keys.end());
        EXPECT_TRUE(diffReports(sweepReport(spec, results),
                                sweepReport(spec, results))
                        .match);
    }
}

TEST(SweepAxis, SchemeNamesResolveThroughRegistry)
{
    SweepSpec spec;
    axisOf(Axis::Scheme).parse("baseline,AERO", spec);
    EXPECT_EQ(spec.schemes,
              (std::vector<SchemeKind>{SchemeKind::Baseline,
                                       SchemeKind::Aero}));
    axisOf(Axis::Scheme).parse("all", spec);
    EXPECT_EQ(spec.schemes, allSchemes());
    axisOf(Axis::Pec).parse("paper", spec);
    EXPECT_EQ(spec.pecs, paperPecPoints());
    axisOf(Axis::Suspension).parse("both", spec);
    EXPECT_EQ(spec.suspensions,
              (std::vector<SuspensionMode>{SuspensionMode::None,
                                           SuspensionMode::MidSegment}));
    EXPECT_DEATH(axisOf(Axis::Scheme).parse("sandisk-turbo", spec),
                 "AERO-CONS");
    axisOf(Axis::Workload).parse("prxy,nope", spec);
    EXPECT_DEATH(spec.validate(), "unknown workload: 'nope'");
}

TEST(SweepAxis, AnAliasKeysAndFingerprintsAsItsCanonicalName)
{
    // Regression: --gc-policies fifo once wrote "fifo" into report rows,
    // journal keys and fingerprints, so neither its report nor its
    // journal matched the same simulation run as fifo-log.
    SweepSpec alias;
    SweepSpec canonical;
    axisOf(Axis::GcPolicy).parse("fifo", alias);
    axisOf(Axis::GcPolicy).parse("fifo-log", canonical);
    EXPECT_EQ(alias.gcPolicies, canonical.gcPolicies);
    const SimPoint a = alias.expand().at(0);
    const SimPoint c = canonical.expand().at(0);
    EXPECT_EQ(a.gcPolicy, GcPolicy::FifoLog);
    EXPECT_EQ(toJson(a).dump(), toJson(c).dump());
    EXPECT_EQ(toJson(a).get("gc_policy").asString(), "fifo-log");
    EXPECT_EQ(configOf(alias).dump(), configOf(canonical).dump());
}

TEST(SweepAxis, IntegerFlagsAreStrict)
{
    SweepSpec spec;
    const SweepAxis &seeds = axisOf(Axis::Seed);
    const SweepAxis &rbers = axisOf(Axis::RberRequirement);
    // " -1" once wrapped to 18446744073709551615.
    EXPECT_DEATH(seeds.parse(" -1", spec), "--seeds: ' -1'");
    EXPECT_DEATH(seeds.parse("18446744073709551616", spec),
                 "--seeds: '18446744073709551616'");
    // 2^32 + 63 once wrapped to 63.
    EXPECT_DEATH(rbers.parse("4294967359", spec),
                 "--rber-requirements: '4294967359'");
    EXPECT_DEATH(rbers.parse("-1", spec), "--rber-requirements");
    EXPECT_DEATH(axisOf(Axis::Pec).parse("5e", spec), "--pecs: '5e'");
}

// --------------------------------------------------------------------------
// SweepRunner
// --------------------------------------------------------------------------

SweepSpec
tinySweep()
{
    SweepSpec spec;
    spec.workloads = {"prxy", "hm"};
    spec.schemes = {SchemeKind::Baseline, SchemeKind::Aero};
    spec.pecs = {2500.0};
    spec.requests = 1500;
    spec.base = SsdConfig::tiny();
    return spec;
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
    SweepSpec spec;
    spec.schemes = {SchemeKind::Baseline, SchemeKind::Aero};
    spec.requests = 10;
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

// Both strings were recorded before the sweep axes moved into one table;
// the journal keys and fingerprints of existing checkpoints depend on
// every byte of them.
TEST(Report, PointKeyBytesArePinned)
{
    SimPoint pt;
    pt.workload = "usr";
    pt.scheme = SchemeKind::Aero;
    pt.pec = 2500.0;
    pt.suspension = SuspensionMode::None;
    pt.mispredictionRate = 0.05;
    pt.rberRequirement = 31;
    pt.gcPolicy = GcPolicy::FifoLog;
    pt.wearLevel = WearLevel::Dynamic;
    pt.requests = 1500;
    pt.seed = 1007;
    EXPECT_EQ(toJson(pt).dump(),
              "{\"workload\":\"usr\",\"scheme\":\"AERO\",\"pec\":2500.0,"
              "\"suspension\":\"none\",\"misprediction_rate\":0.05,"
              "\"rber_requirement\":31,\"gc_policy\":\"fifo-log\","
              "\"wear_level\":\"dynamic\",\"requests\":1500,\"seed\":1007}");
}

TEST(Report, SpecConfigBytesArePinned)
{
    SweepSpec spec;
    spec.workloads = {"prxy", "usr"};
    spec.schemes = {SchemeKind::Baseline, SchemeKind::Aero};
    spec.pecs = {500.0, 2500.0};
    spec.suspensions = {SuspensionMode::None, SuspensionMode::MidSegment};
    spec.mispredictionRates = {0.0, 0.05};
    spec.rberRequirements = {63, 31};
    spec.gcPolicies = {GcPolicy::Greedy, GcPolicy::FifoLog};
    spec.wearLevels = {WearLevel::None, WearLevel::Dynamic};
    spec.seeds = {7, 1007};
    spec.requests = 1500;
    spec.base = SsdConfig::tiny();
    EXPECT_EQ(
        configOf(spec).dump(),
        "{\"workloads\":[\"prxy\",\"usr\"],\"schemes\":[\"Baseline\","
        "\"AERO\"],\"pecs\":[500.0,2500.0],\"suspensions\":[\"none\","
        "\"mid-segment\"],\"misprediction_rates\":[0.0,0.05],"
        "\"rber_requirements\":[63,31],\"gc_policies\":[\"greedy\","
        "\"fifo-log\"],\"wear_levels\":[\"none\",\"dynamic\"],"
        "\"seeds\":[7,1007],"
        "\"requests\":1500,\"drive_capacity_gib\":0.017181396484375,"
        "\"drive\":\"SSD configuration:\\n  capacity:        0.0171814 "
        "GiB logical (45% OP)\\n  topology:        2 channels x 1 chips "
        "x 2 planes x 16 blocks x 32 pages x 16 KiB\\n  chip type:       "
        "3D TLC (48L)\\n  erase scheme:    Baseline\\n  suspension:      "
        "enabled\\n  arbitration:     legacy\\n  GC policy:       "
        "greedy\\n  wear leveling:   none\\n  initial PEC:     0\\n\"}");
}

TEST(Report, CsvShowsEachOptionalAxisOnItsOwn)
{
    // One optional axis off its default adds only its own column, and
    // the rows at the default spell the default out.
    std::vector<SimResult> results(2);
    results[1].point.wearLevel = WearLevel::Dynamic;
    const std::string csv = toCsv(results);
    EXPECT_EQ(csv.substr(0, csv.find(",avg_read_us")),
              "workload,scheme,pec,suspension,misprediction_rate,"
              "rber_requirement,wear_level,requests,seed");
    EXPECT_NE(csv.find("\nprxy,Baseline,500,mid-segment,0,63,none,120000,7,"),
              std::string::npos);
    EXPECT_NE(csv.find("\nprxy,Baseline,500,mid-segment,0,63,dynamic,"),
              std::string::npos);
    // Every row at its default: no optional column at all.
    const std::string plain = toCsv(std::vector<SimResult>(1));
    EXPECT_EQ(plain.substr(0, plain.find(",avg_read_us")),
              "workload,scheme,pec,suspension,misprediction_rate,"
              "rber_requirement,requests,seed");
}

TEST(Report, SuspensionModeNamesRoundTrip)
{
    EXPECT_STREQ(enumName(SuspensionMode::None), "none");
    EXPECT_STREQ(enumName(SuspensionMode::MidSegment), "mid-segment");
    EXPECT_EQ(enumFromName<SuspensionMode>("none"), SuspensionMode::None);
    EXPECT_EQ(enumFromName<SuspensionMode>("on"),
              SuspensionMode::MidSegment);
    EXPECT_DEATH(enumFromName<SuspensionMode>("sometimes"), "mid-segment");
}

} // namespace
} // namespace aero
