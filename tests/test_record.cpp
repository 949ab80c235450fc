/**
 * @file
 * Tests for declared records (exp/record.hh), one parameterized suite
 * over every record a campaign journals or a bench reports:
 *   - encode -> dump -> parse -> decode -> encode gives identical bytes,
 *     over 17-significant-digit doubles, 1e-300, UINT64_MAX, negative
 *     ints, every enum, empty curves and vectors, and tenant rows with
 *     and without their SLO and target columns;
 *   - fixed inputs dump to the strings the hand-written encoders
 *     produced before the declarations replaced them, so journals
 *     written by those encoders still resume;
 *   - a row missing an always-written column dies naming that column.
 * A test-only record shows that one more declared field reaches the
 * JSON, the CSV and the decoder at once.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_records.hh"
#include "core/ept_builder.hh"
#include "devchar/experiments.hh"
#include "devchar/lifetime.hh"
#include "devchar/simstudy.hh"
#include "workload/trace_stats.hh"

namespace aero
{
namespace
{

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/** One value of a declared record (or a journaled vector of them). */
struct RecordCase
{
    std::string name;
    std::function<Json()> encode;
    /** Encode what decoding @p row gives. */
    std::function<Json(const Json &row)> reencode;
    /** The always-written columns a decoder must insist on. */
    std::vector<std::string> required;
    /** dump() of encode() before the declarations; empty: not pinned. */
    std::string pinned;
};

template <typename V>
RecordCase
makeCase(std::string name, V value, std::string pinned = {})
{
    RecordCase c{std::move(name), [value] { return toColumn(value); },
                 [](const Json &row) {
                     return toColumn(fromColumn<V>(row, "payload"));
                 },
                 {}, std::move(pinned)};
    if constexpr (Record<V>) {
        for (const Field<V> &f : V::fields()) {
            if (!f.written)
                c.required.push_back(f.column);
        }
    }
    return c;
}

/** Every canonical enumerator of E, in table order. */
template <typename E>
std::vector<E>
allOf()
{
    std::vector<E> out;
    for (const NamedValue<E> &row : nameTable(E{}).rows) {
        if (enumName(row.value) == row.name)
            out.push_back(row.value);
    }
    return out;
}

SimResult
edgeSimResult()
{
    SimResult r;
    r.point.workload = "prn";
    r.point.scheme = SchemeKind::Dpes;
    r.point.pec = 2500.0;
    r.point.suspension = SuspensionMode::None;
    r.point.mispredictionRate = 0.05;
    r.point.rberRequirement = 31;
    r.point.gcPolicy = GcPolicy::FifoLog;
    r.point.wearLevel = WearLevel::Static;
    r.point.requests = 123456789;
    r.point.seed = kU64Max;
    r.avgReadUs = 101.375;
    r.avgWriteUs = 0.1;  // 0.10000000000000001 at 17 digits
    r.iops = 1.0 / 3.0;
    r.p999Us = 1e-300;
    r.p9999Us = 4.9e6;
    r.p999999Us = 123.456;
    r.erases = 42;
    r.avgEraseMs = 3.5;
    r.suspensions = 7;
    r.writeAmplification = 1.0000000000000002;
    return r;
}

LifetimeResult
edgeLifetime()
{
    LifetimeResult l;
    l.scheme = SchemeKind::AeroCons;
    l.curve = {{0.0, 1.5}, {250.0, 0.1}, {500.0, 63.000000000000007}};
    l.lifetimePec = 4750.0;
    l.crossed = true;
    l.avgEraseLatencyMs = 3.1;
    l.avgLoops = 1.0 / 3.0;
    l.freshMrber = 1e-300;
    return l;
}

MIspeResult
edgeMIspe()
{
    MIspeResult m;
    m.slotsRequired = 9;
    m.nIspe = 2;
    m.finalLoopSlots = 2;
    m.mtBersMs = 5.1;
    m.failAfterSlot = {1e5, 123.5, 0.1};
    return m;
}

/** A plain row, an SLO row without a target, an SLO row with one. */
std::vector<bench::TenantRow>
tenantRows()
{
    std::vector<bench::TenantRow> rows(3);
    rows[0].tenant = 0;
    rows[0].source = "prxy";
    rows[0].reads = 10;
    rows[0].writes = 20;
    rows[0].avgReadUs = 1.5;
    rows[0].p99Us = 2.5;
    rows[0].p999Us = 3.5;
    rows[1].tenant = 1;
    rows[1].source = "ali.A:hog";
    rows[1].writes = 5;
    rows[1].slo = true;
    rows[2].tenant = 2;
    rows[2].source = "usr:victim";
    rows[2].reads = 4000;
    rows[2].avgReadUs = 0.1;
    rows[2].p99Us = 1600.5;
    rows[2].p999Us = 2000.0;
    rows[2].slo = true;
    rows[2].throttleDeferrals = 7;
    rows[2].throttleDeferredMs = 1.25;
    rows[2].targeted = true;
    rows[2].p99TargetUs = 1500;
    rows[2].p99Attained = false;
    return rows;
}

std::vector<RecordCase>
allCases()
{
    std::vector<RecordCase> cases;

    // The pinned strings are dump() of the hand-written encoders the
    // declarations replaced, for these same inputs.
    cases.push_back(makeCase(
        "SimResultEdges", edgeSimResult(),
        R"({"workload":"prn","scheme":"DPES","pec":2500.0,"suspension":"none","misprediction_rate":0.05,"rber_requirement":31,"gc_policy":"fifo-log","wear_level":"static","requests":123456789,"seed":18446744073709551615,"avg_read_us":101.375,"avg_write_us":0.1,"iops":0.3333333333333333,"p999_us":1e-300,"p9999_us":4900000.0,"p999999_us":123.456,"erases":42,"avg_erase_ms":3.5,"suspensions":7,"write_amplification":1.0000000000000002})"));
    cases.push_back(makeCase(
        "SimResultDefault", SimResult{},
        R"({"workload":"prxy","scheme":"Baseline","pec":500.0,"suspension":"mid-segment","misprediction_rate":0.0,"rber_requirement":63,"requests":120000,"seed":7,"avg_read_us":0.0,"avg_write_us":0.0,"iops":0.0,"p999_us":0.0,"p9999_us":0.0,"p999999_us":0.0,"erases":0,"avg_erase_ms":0.0,"suspensions":0,"write_amplification":0.0})"));
    cases.push_back(makeCase(
        "SimPoint", edgeSimResult().point,
        R"({"workload":"prn","scheme":"DPES","pec":2500.0,"suspension":"none","misprediction_rate":0.05,"rber_requirement":31,"gc_policy":"fifo-log","wear_level":"static","requests":123456789,"seed":18446744073709551615})"));
    {
        SimResult negative;
        negative.point.rberRequirement = -1;
        cases.push_back(makeCase("SimResultNegativeInt", negative));
    }
    for (const SchemeKind e : allOf<SchemeKind>()) {
        SimResult r;
        r.point.scheme = e;
        cases.push_back(makeCase(std::string("Scheme_") + enumName(e), r));
    }
    for (const SuspensionMode e : allOf<SuspensionMode>()) {
        SimResult r;
        r.point.suspension = e;
        cases.push_back(
            makeCase(std::string("Suspension_") + enumName(e), r));
    }
    for (const GcPolicy e : allOf<GcPolicy>()) {
        SimResult r;
        r.point.gcPolicy = e;
        cases.push_back(makeCase(std::string("GcPolicy_") + enumName(e), r));
    }
    for (const WearLevel e : allOf<WearLevel>()) {
        SimResult r;
        r.point.wearLevel = e;
        cases.push_back(
            makeCase(std::string("WearLevel_") + enumName(e), r));
    }

    cases.push_back(makeCase(
        "LifetimeResult", edgeLifetime(),
        R"({"scheme":"AERO-CONS","curve":[[0.0,1.5],[250.0,0.1],[500.0,63.00000000000001]],"lifetime_pec":4750.0,"crossed":true,"avg_erase_ms":3.1,"avg_loops":0.3333333333333333,"fresh_mrber":1e-300})"));
    for (const SchemeKind e : allOf<SchemeKind>()) {
        LifetimeResult l;  // empty curve
        l.scheme = e;
        cases.push_back(
            makeCase(std::string("LifetimeEmptyCurve_") + enumName(e), l));
    }

    {
        ExtendedTraceStats s;
        s.basic.requests = 5000;
        s.basic.readRatio = 0.1;
        s.basic.avgReqSizeKB = 16.5;
        s.basic.avgInterArrivalMs = 1.0 / 3.0;
        s.basic.maxPage = kU64Max;
        s.writeAvgSizeKB = 32.25;
        s.readAvgSizeKB = 0.0;
        s.hot1pctFraction = 0.7;
        s.distinctPages = 1234;
        s.totalPagesAccessed = 99999;
        cases.push_back(makeCase(
            "ExtendedTraceStats", s,
            R"({"requests":5000,"read_ratio":0.1,"avg_req_size_kb":16.5,"avg_inter_arrival_ms":0.3333333333333333,"max_page":18446744073709551615,"write_avg_size_kb":32.25,"read_avg_size_kb":0.0,"hot_1pct_fraction":0.7,"distinct_pages":1234,"total_pages_accessed":99999})"));
    }

    cases.push_back(makeCase(
        "MIspeResult", edgeMIspe(),
        R"({"slots_required":9,"n_ispe":2,"final_loop_slots":2,"mtbers_ms":5.1,"fail_after_slot":[1e+05,123.5,0.1]})"));
    {
        MIspeResult m;  // no fail-bit samples, negative counts
        m.slotsRequired = -3;
        m.nIspe = std::numeric_limits<int>::min();
        cases.push_back(makeCase("MIspeResultEmpty", m));
    }
    // measureChipSharded's journaled chip task: records by PEC point.
    cases.push_back(makeCase(
        "ChipTask",
        std::vector<std::vector<MIspeResult>>{{edgeMIspe()}, {}},
        R"([[{"slots_required":9,"n_ispe":2,"final_loop_slots":2,"mtbers_ms":5.1,"fail_after_slot":[1e+05,123.5,0.1]}],[]])"));

    {
        Fig9Data::Cell c;
        c.tseSlots = 2;
        c.pec = 2500.0;
        c.samples = 96;
        c.rangeFraction = {0.1, 0.2, 0.0, 0.0, 0.0,
                           0.0, 0.0, 0.0, 0.0, 0.7};
        c.benefitFraction = 0.75;
        c.avgTbersMs = 2.8;
        cases.push_back(makeCase(
            "Fig9Cell", c,
            R"({"tse_slots":2,"pec":2500.0,"samples":96,"range_fraction":[0.1,0.2,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.7],"benefit_fraction":0.75,"avg_tbers_ms":2.8})"));
    }
    cases.push_back(makeCase("CompleteErase", CompleteErase{3, 41.5},
                             R"({"n":3,"mrber":41.5})"));
    {
        InsufficientErase e;
        e.nIspe = 4;
        e.failBits = 1234.5;
        e.range = 3;
        e.mrberAfter = 60.25;
        cases.push_back(makeCase(
            "InsufficientErase", e,
            R"({"n_ispe":4,"fail_bits":1234.5,"range":3,"mrber_after":60.25})"));
        e.range = -1;
        cases.push_back(makeCase("InsufficientEraseNegative", e));
    }

    {
        bench::GcCellResult g;
        g.avgReadUs = 85.5;
        g.p999Us = 1234.25;
        g.writeAmplification = 2.5;
        g.gcWriteAmplification = 1.25;
        g.gcMigratedPages = 1000;
        g.wlMigratedPages = 0;
        g.wlInvocations = 3;
        g.erases = kU64Max;
        g.maxChannelUtil = 0.5;
        g.hostWaitUs = 1.5;
        g.gcWaitUs = 2.5;
        cases.push_back(makeCase(
            "GcCellResult", g,
            R"({"avg_read_us":85.5,"p999_us":1234.25,"write_amplification":2.5,"gc_write_amplification":1.25,"gc_migrated_pages":1000,"wl_migrated_pages":0,"wl_invocations":3,"erases":18446744073709551615,"max_channel_util":0.5,"host_wait_us":1.5,"gc_wait_us":2.5})"));
    }

    const auto rows = tenantRows();
    cases.push_back(makeCase(
        "TenantRows", rows,
        R"([{"tenant":0,"source":"prxy","reads":10,"writes":20,"avg_read_us":1.5,"p99_us":2.5,"p999_us":3.5},{"tenant":1,"source":"ali.A:hog","reads":0,"writes":5,"avg_read_us":0.0,"p99_us":0.0,"p999_us":0.0,"throttle_deferrals":0,"throttle_deferred_ms":0.0},{"tenant":2,"source":"usr:victim","reads":4000,"writes":0,"avg_read_us":0.1,"p99_us":1600.5,"p999_us":2000.0,"throttle_deferrals":7,"throttle_deferred_ms":1.25,"p99_target_us":1500,"p99_attained":false}])"));
    cases.push_back(makeCase("TenantRowPlain", rows[0]));
    cases.push_back(makeCase("TenantRowSlo", rows[1]));
    cases.push_back(makeCase("TenantRowSloTarget", rows[2]));
    cases.push_back(
        makeCase("TenantRowsNone", std::vector<bench::TenantRow>{}));

    {
        bench::LifetimeRow row;
        row.base.scheme = SchemeKind::Baseline;
        row.base.lifetimePec = 3500.0;
        row.cons = edgeLifetime();
        row.aero = edgeLifetime();
        row.aero.scheme = SchemeKind::Aero;
        cases.push_back(makeCase(
            "Fig17LifetimeRow", row,
            R"({"baseline":{"scheme":"Baseline","curve":[],"lifetime_pec":3500.0,"crossed":false,"avg_erase_ms":0.0,"avg_loops":0.0,"fresh_mrber":0.0},"aero_cons":{"scheme":"AERO-CONS","curve":[[0.0,1.5],[250.0,0.1],[500.0,63.00000000000001]],"lifetime_pec":4750.0,"crossed":true,"avg_erase_ms":3.1,"avg_loops":0.3333333333333333,"fresh_mrber":1e-300},"aero":{"scheme":"AERO","curve":[[0.0,1.5],[250.0,0.1],[500.0,63.00000000000001]],"lifetime_pec":4750.0,"crossed":true,"avg_erase_ms":3.1,"avg_loops":0.3333333333333333,"fresh_mrber":1e-300}})"));
    }
    return cases;
}

class DeclaredRecord : public ::testing::TestWithParam<RecordCase>
{
};

TEST_P(DeclaredRecord, RoundTripsByteIdentically)
{
    const Json row = GetParam().encode();
    const std::string bytes = row.dump();
    EXPECT_EQ(GetParam().reencode(Json::parseOrDie(bytes)).dump(), bytes);
    EXPECT_EQ(GetParam().reencode(row).dump(), bytes);
}

TEST_P(DeclaredRecord, MissingColumnDiesNamingIt)
{
    const Json row = GetParam().encode();
    for (const std::string &column : GetParam().required) {
        Json pruned = Json::object();
        for (std::size_t i = 0; i < row.size(); ++i) {
            const auto &[key, value] = row.member(i);
            if (key != column)
                pruned[key] = value;
        }
        EXPECT_DEATH(GetParam().reencode(pruned),
                     "missing '" + column + "'");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Records, DeclaredRecord, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<RecordCase> &info) {
        std::string name;
        for (const char c : info.param.name)
            name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
        return name;
    });

TEST(DeclaredRecord, EncodesAsBeforeTheDeclarations)
{
    std::size_t pinned = 0;
    for (const RecordCase &c : allCases()) {
        if (c.pinned.empty())
            continue;
        ++pinned;
        EXPECT_EQ(c.encode().dump(), c.pinned) << c.name;
    }
    EXPECT_EQ(pinned, 13u);
}

TEST(DeclaredRecord, ConditionalColumnsFollowTheirFlags)
{
    const auto rows = tenantRows();
    EXPECT_FALSE(toJson(rows[0]).contains("throttle_deferrals"));
    EXPECT_TRUE(toJson(rows[1]).contains("throttle_deferrals"));
    EXPECT_FALSE(toJson(rows[1]).contains("p99_target_us"));
    EXPECT_TRUE(toJson(rows[2]).contains("p99_attained"));
    const auto back = fromJson<bench::TenantRow>(toJson(rows[2]));
    EXPECT_TRUE(back.slo);
    EXPECT_TRUE(back.targeted);
    EXPECT_EQ(back.p99TargetUs, 1500u);
    EXPECT_FALSE(fromJson<bench::TenantRow>(toJson(rows[0])).slo);
}

TEST(DeclaredRecord, MalformedArrayColumnDiesNamingIt)
{
    Json m = toJson(edgeMIspe());
    m["fail_after_slot"] = 5.0;
    EXPECT_DEATH(fromJson<MIspeResult>(m),
                 "column 'fail_after_slot' is not an array");
    Json cell = toJson(Fig9Data::Cell{});
    Json short_fractions = Json::array();
    short_fractions.push(0.5);
    cell["range_fraction"] = short_fractions;
    EXPECT_DEATH(fromJson<Fig9Data::Cell>(cell),
                 "column 'range_fraction' is not an array of 10");
}

/** A record that exists only to show what adding a column takes. */
struct Probe
{
    double value = 0.0;
    std::uint64_t count = 0;
    int added = 0;  //!< the field added on top of the first two

    static const Fields<Probe> &
    fields()
    {
        static const Fields<Probe> table = {
            field("value", &Probe::value),
            field("count", &Probe::count),
            field("added", &Probe::added),  // the one-line change
        };
        return table;
    }
};

TEST(DeclaredRecord, OneFieldDeclarationReachesJsonCsvAndDecoder)
{
    const Probe probe{0.5, 3, -7};
    EXPECT_EQ(toJson(probe).dump(), R"({"value":0.5,"count":3,"added":-7})");
    EXPECT_EQ(toCsv(std::vector<Probe>{probe}),
              "value,count,added\n0.5,3,-7\n");
    EXPECT_EQ(fromJson<Probe>(toJson(probe)).added, -7);
    EXPECT_DEATH(fromJson<Probe>(Json::parseOrDie(
                     R"({"value":0.5,"count":3})")),
                 "missing 'added'");
}

TEST(DeclaredRecord, CsvMatchesTheBeforeDeclarationsBytes)
{
    const std::string csv =
        toCsv(std::vector<SimResult>{edgeSimResult(), SimResult{}});
    EXPECT_EQ(csv,
              "workload,scheme,pec,suspension,misprediction_rate,"
              "rber_requirement,gc_policy,wear_level,requests,seed,"
              "avg_read_us,avg_write_us,iops,p999_us,p9999_us,p999999_us,"
              "erases,avg_erase_ms,suspensions,write_amplification\n"
              "prn,DPES,2500,none,0.050000000000000003,31,fifo-log,static,"
              "123456789,18446744073709551615,101.375,0.10000000000000001,"
              "0.33333333333333331,1e-300,4900000,123.456,42,3.5,7,"
              "1.0000000000000002\n"
              "prxy,Baseline,500,mid-segment,0,63,greedy,none,120000,7,0,0,"
              "0,0,0,0,0,0,0,0\n");
}

} // namespace
} // namespace aero
