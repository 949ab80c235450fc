/**
 * @file
 * Per-tenant SLO enforcement property battery: the TenantSloSpec
 * grammar, token-bucket admission throttling in the TracePump, and
 * weighted-fair channel arbitration, proven as properties rather than
 * pinned values — work conservation, no starvation under adversarial
 * mixes, weighted-share convergence, bucket-refill determinism across
 * worker counts, and a randomized multi-tenant fuzz with per-tenant
 * conservation invariants.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/aero_scheme.hh"
#include "exp/sweep.hh"
#include "ssd/chip_agent.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io/stream.hh"
#include "workload/trace_io/tenant.hh"

namespace aero
{
namespace
{

// ---------------------------------------------------------------------------
// TenantSloSpec grammar
// ---------------------------------------------------------------------------

TEST(TenantSloSpec, ParsesEveryKey)
{
    const TenantSloSpec spec = parseTenantSloSpec(
        "0:weight=8:p99=1500,1:iops=2000:bw=50000:burst=32,7:weight=1");
    ASSERT_EQ(spec.tenants.size(), 3u);

    const TenantSlo &victim = spec.tenants[0];
    EXPECT_EQ(victim.tenant, 0u);
    EXPECT_EQ(victim.weight, 8u);
    EXPECT_EQ(victim.iopsBudget, 0u);
    EXPECT_EQ(victim.bwBudgetKBps, 0u);
    EXPECT_EQ(victim.burst, kDefaultSloBurst);
    EXPECT_EQ(victim.p99TargetUs, 1500u);

    const TenantSlo &hog = spec.tenants[1];
    EXPECT_EQ(hog.tenant, 1u);
    EXPECT_EQ(hog.weight, 1u);
    EXPECT_EQ(hog.iopsBudget, 2000u);
    EXPECT_EQ(hog.bwBudgetKBps, 50000u);
    EXPECT_EQ(hog.burst, 32u);
    EXPECT_EQ(hog.p99TargetUs, 0u);

    EXPECT_EQ(spec.maxTenant(), 7u);
    ASSERT_NE(spec.find(7), nullptr);
    EXPECT_EQ(spec.find(3), nullptr);
    EXPECT_FALSE(spec.empty());
    EXPECT_TRUE(TenantSloSpec{}.empty());
}

TEST(TenantSloSpec, RenderRoundTrips)
{
    const char *specs[] = {
        "0:weight=8:p99=1500,1:iops=2000:burst=32",
        "0:weight=1",  // all-default entry must stay re-parseable
        "3:iops=1:bw=1:burst=1:p99=1:weight=1024",
    };
    for (const char *s : specs) {
        const TenantSloSpec a = parseTenantSloSpec(s);
        const std::string canon = renderTenantSloSpec(a);
        const TenantSloSpec b = parseTenantSloSpec(canon);
        // Canonical form is a fixed point.
        EXPECT_EQ(renderTenantSloSpec(b), canon) << "spec: " << s;
        ASSERT_EQ(b.tenants.size(), a.tenants.size());
        for (std::size_t i = 0; i < a.tenants.size(); ++i) {
            EXPECT_EQ(b.tenants[i].tenant, a.tenants[i].tenant);
            EXPECT_EQ(b.tenants[i].weight, a.tenants[i].weight);
            EXPECT_EQ(b.tenants[i].iopsBudget, a.tenants[i].iopsBudget);
            EXPECT_EQ(b.tenants[i].bwBudgetKBps, a.tenants[i].bwBudgetKBps);
            EXPECT_EQ(b.tenants[i].burst, a.tenants[i].burst);
            EXPECT_EQ(b.tenants[i].p99TargetUs, a.tenants[i].p99TargetUs);
        }
    }
}

TEST(TenantSloSpecDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH(parseTenantSloSpec(""), "empty tenant SLO spec");
    EXPECT_DEATH(parseTenantSloSpec("0:weight=2,,1:weight=3"),
                 "empty entry");
    EXPECT_DEATH(parseTenantSloSpec("5"), "no settings");
    EXPECT_DEATH(parseTenantSloSpec("0:weight=0"),
                 "weight 0 out of range \\[1, 1024\\]");
    EXPECT_DEATH(parseTenantSloSpec("0:weight=2000"),
                 "weight 2000 out of range \\[1, 1024\\]");
    EXPECT_DEATH(parseTenantSloSpec("0:iops=0"), "zero iops budget");
    EXPECT_DEATH(parseTenantSloSpec("0:bw=0"), "zero bandwidth budget");
    EXPECT_DEATH(parseTenantSloSpec("0:burst=0"), "zero burst allowance");
    EXPECT_DEATH(parseTenantSloSpec("0:p99=0"), "zero p99 target");
    EXPECT_DEATH(parseTenantSloSpec("0:weight=2,0:weight=3"),
                 "duplicate tenant 0");
    EXPECT_DEATH(parseTenantSloSpec("70000:weight=2"),
                 "tenant id 70000 out of range \\(max 65535\\)");
    EXPECT_DEATH(parseTenantSloSpec("0:weight=1:weight=2"),
                 "duplicate key 'weight'");
    EXPECT_DEATH(parseTenantSloSpec("0:magic=1"), "unknown key 'magic'");
    EXPECT_DEATH(parseTenantSloSpec("0:weight=abc"), "is not a number");
    EXPECT_DEATH(parseTenantSloSpec("0:weight"),
                 "is not <key>=<value>");
    EXPECT_DEATH(parseTenantSloSpec("x:weight=2"), "is not a number");
}

// ---------------------------------------------------------------------------
// Scheduler properties
// ---------------------------------------------------------------------------

/** Minimal FtlCallbacks recording completions in completion order. */
class StubFtl : public FtlCallbacks
{
  public:
    void
    onPageOpDone(const PageOp &op) override
    {
        completions.push_back(op);
    }

    void
    onEraseDone(int, BlockId, const EraseOutcome &, GcJob *) override
    {
    }

    bool
    eraseUrgent(int, BlockId) override
    {
        return false;
    }

    std::vector<PageOp> completions;
};

SsdConfig
sloCfg(SloPolicy policy, const std::string &spec)
{
    SsdConfig cfg = SsdConfig::tiny();
    // Several chips per channel, so the bus regularly has waiters from
    // different tenants and weighted-fair arbitration has real choices
    // to make (one chip per channel never contends with itself).
    cfg.chipsPerChannel = 4;
    cfg.seed = 99;
    cfg.arbitration = Arbitration::Queued;
    cfg.sloPolicy = policy;
    if (!spec.empty())
        cfg.slo = parseTenantSloSpec(spec);
    return cfg;
}

Trace
tenantTrace(const SsdConfig &cfg, std::uint64_t n, double intensity,
            std::uint64_t seed, const char *wl = "prxy")
{
    SyntheticConfig wc;
    wc.spec = workloadByName(wl);
    wc.footprintPages = SsdConfig(cfg).logicalPages();
    wc.numRequests = n;
    wc.seed = seed;
    wc.intensityScale = intensity;
    return generateTrace(wc);
}

struct MixOutcome
{
    std::vector<TenantLatency> tenants;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    double avgReadUs = 0.0;
    double p999Us = 0.0;
    std::uint64_t throttleDeferrals = 0;
};

MixOutcome
runMix(const SsdConfig &cfg, const std::vector<Trace> &traces)
{
    Ssd ssd(cfg);
    ssd.metrics().enableTenantTracking(traces.size());
    std::vector<std::unique_ptr<TraceStream>> streams;
    for (const Trace &t : traces)
        streams.push_back(std::make_unique<VectorTraceStream>(t));
    TenantMix mix(std::move(streams));
    ssd.run(mix);

    const SsdMetrics &m = ssd.metrics();
    MixOutcome out;
    out.tenants = m.tenants;
    out.reads = m.reads;
    out.writes = m.writes;
    out.avgReadUs = m.readLatency.mean() / static_cast<double>(kUs);
    out.p999Us = ticksToUs(m.readLatency.percentile(0.999));
    out.throttleDeferrals = m.throttleDeferrals;
    return out;
}

TEST(SloScheduler, SingleTenantWfqMatchesFifoExactly)
{
    // With one tenant the SFQ tags are monotone, so weighted-fair
    // arbitration must be grant-for-grant identical to FIFO: enforcement
    // is work-conserving and intrusion-free when there is no contention
    // to arbitrate.
    const SsdConfig none = sloCfg(SloPolicy::None, "");
    const SsdConfig wfq = sloCfg(SloPolicy::Wfq, "0:weight=64");
    const Trace trace = tenantTrace(none, 6000, 4.0, 31);

    const MixOutcome a = runMix(none, {trace});
    const MixOutcome b = runMix(wfq, {trace});
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_DOUBLE_EQ(a.avgReadUs, b.avgReadUs);
    EXPECT_DOUBLE_EQ(a.p999Us, b.p999Us);
}

TEST(SloScheduler, UnreachableBudgetsNeverDefer)
{
    // A throttle whose budgets exceed the offered load must admit every
    // request instantly: zero deferrals and bit-identical latency.
    const SsdConfig none = sloCfg(SloPolicy::None, "");
    const SsdConfig throttled =
        sloCfg(SloPolicy::Throttle, "0:iops=1000000000:bw=1000000000");
    const Trace trace = tenantTrace(none, 6000, 4.0, 31);

    const MixOutcome a = runMix(none, {trace});
    const MixOutcome b = runMix(throttled, {trace});
    EXPECT_EQ(b.throttleDeferrals, 0u);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_DOUBLE_EQ(a.avgReadUs, b.avgReadUs);
    EXPECT_DOUBLE_EQ(a.p999Us, b.p999Us);
}

TEST(SloScheduler, NoStarvationUnderAdversarialMix)
{
    // A write-heavy aggressor at 40x arrival intensity against a tightly
    // budgeted spec: every request of both tenants still completes (the
    // throttle defers, never drops) and the victim keeps making
    // progress.
    const SsdConfig cfg = sloCfg(SloPolicy::ThrottleWfq,
                                 "0:weight=8,1:weight=1:iops=800");
    const Trace victim = tenantTrace(cfg, 3000, 1.0, 31, "usr");
    const Trace hog = tenantTrace(cfg, 6000, 40.0, 77, "ali.A");

    std::uint64_t submitted[2][2] = {};  // [tenant][op]
    for (const auto &r : victim)
        submitted[0][r.op == IoOp::Write ? 1 : 0] += 1;
    for (const auto &r : hog)
        submitted[1][r.op == IoOp::Write ? 1 : 0] += 1;

    const MixOutcome out = runMix(cfg, {victim, hog});
    ASSERT_EQ(out.tenants.size(), 2u);
    EXPECT_EQ(out.tenants[0].reads, submitted[0][0]);
    EXPECT_EQ(out.tenants[0].writes, submitted[0][1]);
    EXPECT_EQ(out.tenants[1].reads, submitted[1][0]);
    EXPECT_EQ(out.tenants[1].writes, submitted[1][1]);

    // The aggressor overran its budget and paid for it; the unbudgeted
    // victim was never deferred.
    EXPECT_GT(out.tenants[1].throttleDeferrals, 0u);
    EXPECT_GT(out.tenants[1].throttleDeferredTicks, 0u);
    EXPECT_EQ(out.tenants[0].throttleDeferrals, 0u);
}

TEST(SloScheduler, ThrottleShieldsTheVictimsTail)
{
    // Same adversarial mix with and without enforcement: the victim's
    // read tail must improve when the aggressor is held to its budget
    // and out-weighted on the channels.
    const SsdConfig none = sloCfg(SloPolicy::None, "");
    const SsdConfig enforced = sloCfg(SloPolicy::ThrottleWfq,
                                      "0:weight=8,1:weight=1:iops=800");
    const Trace victim = tenantTrace(none, 3000, 1.0, 31, "usr");
    const Trace hog = tenantTrace(none, 6000, 40.0, 77, "ali.A");

    const MixOutcome base = runMix(none, {victim, hog});
    const MixOutcome slo = runMix(enforced, {victim, hog});
    ASSERT_EQ(base.tenants.size(), 2u);
    ASSERT_EQ(slo.tenants.size(), 2u);
    EXPECT_LT(slo.tenants[0].readP99Us(), base.tenants[0].readP99Us());
}

/**
 * A bus-bound arbiter rig: one channel, two chip agents per tenant,
 * each agent fed a deep single-tenant read backlog. The transfer time
 * dwarfs the sense time, so the bus is the bottleneck and the grant
 * sequence is pure weighted-fair arbitration — the cleanest window onto
 * the scheduler, with none of the per-chip FIFO mixing an end-to-end
 * multi-tenant run layers on top. Two chips per tenant matter: a chip
 * leaves the wait queue while it senses its next page, so a
 * single-chip tenant is absent at the very pick that follows its own
 * grant and the arbiter could never award back-to-back grants however
 * large the weight.
 */
struct ArbiterRig
{
    static constexpr std::size_t kChipsPerTenant = 2;

    explicit ArbiterRig(const std::vector<std::uint32_t> &weights)
        : cfg(SsdConfig::tiny())
    {
        cfg.arbitration = Arbitration::Queued;
        cfg.channelXferPerPage = 2000 * kUs;  // bus-bound on purpose
        channel.init(0, &eq, &metrics);
        channel.enableWfq(weights);
        metrics.enableTenantTracking(weights.size());
        for (std::size_t a = 0; a < weights.size() * kChipsPerTenant; ++a) {
            chips.push_back(std::make_unique<NandChip>(
                ChipParams::forType(cfg.chipType), cfg.geometry, 11));
            for (int b = 0; b < chips[a]->numBlocks(); ++b)
                chips[a]->ageBaseline(b, 2500);
            schemes.push_back(makeEraseScheme(SchemeKind::Baseline,
                                              *chips[a], SchemeOptions{}));
            agents.push_back(std::make_unique<ChipAgent>(
                static_cast<int>(a), *chips[a], *schemes[a], eq, cfg,
                channel, ftl, metrics));
        }
    }

    void
    backlog(std::size_t tenant, std::size_t n)
    {
        for (std::size_t c = 0; c < kChipsPerTenant; ++c) {
            ChipAgent &agent = *agents[tenant * kChipsPerTenant + c];
            for (std::size_t i = 0; i < n / kChipsPerTenant; ++i) {
                PageOp op;
                op.kind = PageOp::Kind::UserRead;
                op.lpn = i;
                op.tenant = static_cast<TenantId>(tenant);
                agent.enqueueDeferred(op);
            }
            agent.flush();
        }
    }

    SsdConfig cfg;
    EventQueue eq;
    Channel channel;
    StubFtl ftl;
    SsdMetrics metrics;
    std::vector<std::unique_ptr<NandChip>> chips;
    std::vector<std::unique_ptr<EraseScheme>> schemes;
    std::vector<std::unique_ptr<ChipAgent>> agents;
};

TEST(SloScheduler, WeightedShareConverges)
{
    // Three perpetually backlogged tenants at weights 1:2:4 must split
    // the bus 1:2:4: in any window where all three are still queued,
    // completion counts converge to the weight vector (SFQ's bounded
    // unfairness shrinks against a 140-grant window).
    ArbiterRig rig({1, 2, 4});
    for (std::size_t t = 0; t < 3; ++t)
        rig.backlog(t, 200);
    rig.eq.run();
    ASSERT_EQ(rig.ftl.completions.size(), 600u);

    // First 140 completions: all tenants still backlogged (the fastest
    // drains only at 200), so the fluid-model split is 20/40/80.
    std::size_t counts[3] = {};
    for (std::size_t i = 0; i < 140; ++i)
        counts[rig.ftl.completions[i].tenant] += 1;
    EXPECT_NEAR(static_cast<double>(counts[0]), 20.0, 5.0);
    EXPECT_NEAR(static_cast<double>(counts[1]), 40.0, 8.0);
    EXPECT_NEAR(static_cast<double>(counts[2]), 80.0, 12.0);

    // Work conservation: every queued op completes, and the per-tenant
    // channel-held time the metrics saw matches the grant count (each
    // grant holds the bus for exactly one transfer slot).
    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_EQ(rig.metrics.tenants[t].channelGrants, 200u);
        EXPECT_EQ(rig.metrics.tenants[t].channelHeldTicks,
                  200u * rig.cfg.channelXferPerPage);
    }
}

TEST(SloScheduler, UnlistedTenantWeighsOneAndIsNeverStarved)
{
    // A zero (or missing) entry in the weight table defaults to weight
    // 1: the unlisted tenant still gets its 1-in-5 share against a
    // weight-4 neighbour instead of starving.
    ArbiterRig rig({4, 0});  // explicit zero defaults to weight 1
    rig.backlog(0, 200);
    rig.backlog(1, 200);
    rig.eq.run();
    ASSERT_EQ(rig.ftl.completions.size(), 400u);
    std::size_t counts[2] = {};
    for (std::size_t i = 0; i < 150; ++i)
        counts[rig.ftl.completions[i].tenant] += 1;
    // 4:1 split of 150 -> 120/30.
    EXPECT_NEAR(static_cast<double>(counts[0]), 120.0, 12.0);
    EXPECT_NEAR(static_cast<double>(counts[1]), 30.0, 12.0);
    EXPECT_GT(counts[1], 0u);  // never starved
}

TEST(SloScheduler, BucketRefillIsDeterministicAcrossWorkerCounts)
{
    // The same eight drives — two schemes x four SLO policies, each
    // policy and its budgets on the base config — must produce
    // bit-identical results at 1 and 4 threads: bucket state lives
    // per-drive, so worker count can't leak into admission timing.
    const std::vector<SloPolicy> policies = {
        SloPolicy::None, SloPolicy::Throttle, SloPolicy::Wfq,
        SloPolicy::ThrottleWfq};
    std::vector<SweepSpec> specs;
    for (const SloPolicy policy : policies) {
        for (const SchemeKind scheme :
             {SchemeKind::Baseline, SchemeKind::Aero}) {
            SweepSpec spec;
            spec.schemes = {scheme};
            spec.pecs = {2500.0};
            spec.requests = 2500;
            spec.base = SsdConfig::tiny();
            spec.base.arbitration = Arbitration::Queued;
            spec.base.sloPolicy = policy;
            // prxy offers ~280 req/s; a 150/s budget makes every
            // throttled drive genuinely defer.
            spec.base.slo = parseTenantSloSpec("0:weight=4:iops=150");
            specs.push_back(spec);
        }
    }
    const auto runAll = [&](int threads) {
        return parallelMap(
            specs,
            [](const SweepSpec &spec) {
                return SweepRunner(1).run(spec).front();
            },
            threads);
    };
    const auto serial = runAll(1);
    const auto parallel = runAll(4);
    ASSERT_EQ(serial.size(), 8u);
    ASSERT_EQ(parallel.size(), 8u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial[i].avgReadUs, parallel[i].avgReadUs);
        EXPECT_DOUBLE_EQ(serial[i].avgWriteUs, parallel[i].avgWriteUs);
        EXPECT_DOUBLE_EQ(serial[i].iops, parallel[i].iops);
        EXPECT_DOUBLE_EQ(serial[i].p999Us, parallel[i].p999Us);
        EXPECT_EQ(serial[i].erases, parallel[i].erases);
    }
    // The throttled drives actually throttled (the base drive's policy
    // is live): the budget must bite somewhere or this test proves
    // nothing. specs[0..1] run `none`, specs[2..3] run `throttle`.
    bool throttle_differs = false;
    for (std::size_t si = 0; si < 2; ++si)
        throttle_differs |= serial[2 + si].avgReadUs != serial[si].avgReadUs;
    EXPECT_TRUE(throttle_differs);
}

TEST(SloScheduler, RandomizedFuzzConservesEveryTenant)
{
    // 50k randomized multi-tenant ops through throttle+wfq with random
    // budgets and weights: whatever the admission schedule, every
    // tenant's completed counts must equal its submitted counts, and
    // only budgeted tenants may ever be deferred.
    constexpr std::uint64_t kFuzzSeed = 0xA3305EED;
    constexpr std::size_t kTenants = 4;
    constexpr std::size_t kOps = 50000;
    std::mt19937_64 rng(kFuzzSeed);

    // Random spec: tenant 0 unbudgeted (control), the rest random.
    std::ostringstream spec;
    spec << "0:weight=" << (1 + rng() % 16);
    for (std::size_t t = 1; t < kTenants; ++t) {
        spec << "," << t << ":weight=" << (1 + rng() % 16);
        if (rng() % 2)
            spec << ":iops=" << (2000 + rng() % 18000);
        if (rng() % 2)
            spec << ":bw=" << (50000 + rng() % 400000);
        spec << ":burst=" << (4 + rng() % 60);
    }
    const SsdConfig cfg = sloCfg(SloPolicy::ThrottleWfq, spec.str());
    const TenantSloSpec parsed = cfg.slo;

    const Lpn footprint = SsdConfig(cfg).logicalPages();
    std::vector<Trace> traces(kTenants);
    std::uint64_t submitted[kTenants][2] = {};
    Tick arrival = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
        arrival += rng() % (200 * kUs / 100);
        TraceRecord rec;
        rec.arrival = arrival;
        rec.op = (rng() % 10 < 7) ? IoOp::Read : IoOp::Write;
        rec.pages = 1 + static_cast<std::uint32_t>(rng() % 4);
        rec.startPage = rng() % (footprint - rec.pages);
        const std::size_t tenant = rng() % kTenants;
        traces[tenant].push_back(rec);
        submitted[tenant][rec.op == IoOp::Write ? 1 : 0] += 1;
    }

    const MixOutcome out = runMix(cfg, traces);
    ASSERT_EQ(out.tenants.size(), kTenants);
    for (std::size_t t = 0; t < kTenants; ++t) {
        const TenantLatency &m = out.tenants[t];
        const TenantSlo *slo = parsed.find(static_cast<TenantId>(t));
        const bool budgeted =
            slo != nullptr && (slo->iopsBudget != 0 || slo->bwBudgetKBps != 0);
        if (m.reads != submitted[t][0] || m.writes != submitted[t][1] ||
            (!budgeted && m.throttleDeferrals != 0)) {
            // Minimal op-log dump: the seed plus the per-tenant ledger
            // is enough to replay the exact failing schedule.
            std::ostringstream dump;
            dump << "fuzz seed 0x" << std::hex << kFuzzSeed << std::dec
                 << ", spec '" << spec.str() << "'\n";
            for (std::size_t u = 0; u < kTenants; ++u) {
                dump << "  tenant " << u << ": submitted "
                     << submitted[u][0] << "r/" << submitted[u][1]
                     << "w, completed " << out.tenants[u].reads << "r/"
                     << out.tenants[u].writes << "w, deferrals "
                     << out.tenants[u].throttleDeferrals << "\n";
            }
            FAIL() << "per-tenant conservation violated\n" << dump.str();
        }
    }
    // The fuzz must exercise the throttle path, not just FIFO-admit.
    EXPECT_GT(out.throttleDeferrals, 0u);
}

} // namespace
} // namespace aero
