/**
 * @file
 * Multi-tenant QoS study: N tenant workloads share one drive, and the
 * per-tenant read-latency tails show how much one tenant's erase traffic
 * bleeds into another's reads under each erase scheme — the shared-drive
 * consequence of the tail-latency result of Fig. 14.
 *
 * The tenant mix comes from `--tenants <spec>` (see
 * workload/trace_io/tenant.hh for the grammar: synthetic Table-3 presets
 * or `@file` aero-trace/1 traces, merged by arrival time and tagged).
 * Each (scheme, PEC) cell replays the identical merged stream through
 * its own drive; cells fan out over parallelMapJournaled, so
 * `--checkpoint` resumes a killed campaign and artifacts are
 * byte-identical at any AERO_SWEEP_THREADS.
 *
 * `--small` runs a fixed hermetic mix for the golden gate (prxy/hm/usr,
 * 1200 requests each, Baseline vs AERO at 2.5K PEC) and therefore
 * rejects `--tenants`.
 *
 * `--slo` turns the campaign into an SLO-enforcement study: every cell
 * runs under queued channel arbitration and the SloPolicy axis (none /
 * throttle / wfq / throttle+wfq) joins the grid, with per-tenant
 * deferral and p99-attainment columns in the artifact. `--slo noisy` is
 * the built-in noisy-neighbor configuration the golden gate pins: a
 * read-heavy victim tenant with a p99 target shares the drive with a
 * write-heavy aggressor pushing far past its IOPS budget, so `none`
 * demonstrably violates the victim's SLO and `throttle+wfq` restores
 * it. Any other `--slo` argument is parsed as a TenantSloSpec and
 * applied to the current mix.
 */

#include <cstring>

#include "bench_records.hh"
#include "bench_util.hh"
#include "devchar/simstudy.hh"
#include "exp/sweep.hh"
#include "workload/trace_io/tenant.hh"

using namespace aero;

namespace
{

struct Cell
{
    SchemeKind scheme = SchemeKind::Baseline;
    double pec = 500.0;
    SloPolicy policy = SloPolicy::None;  //!< only varied in SLO mode
};

/** Everything a cell run needs beyond its own axes. */
struct CampaignSetup
{
    std::vector<TenantSource> sources;
    bool slo = false;            //!< SLO mode: queued arbitration + spec
    TenantSloSpec sloSpec;       //!< budgets/weights/targets (SLO mode)
};

/** One row per tenant, in tenant order. */
std::vector<bench::TenantRow>
runCell(const Cell &cell, const CampaignSetup &setup)
{
    SsdConfig cfg = SsdConfig::bench();
    cfg.scheme = cell.scheme;
    cfg.initialPec = cell.pec;
    if (setup.slo) {
        // Every SLO cell — including policy `none` — runs queued
        // arbitration, so the policy axis isolates enforcement, not the
        // arbitration model swap.
        cfg.arbitration = Arbitration::Queued;
        cfg.sloPolicy = cell.policy;
        cfg.slo = setup.sloSpec;
    }

    Ssd ssd(cfg);
    ssd.metrics().enableTenantTracking(setup.sources.size());

    SyntheticConfig base;
    base.footprintPages = ssd.config().logicalPages();
    base.pageSizeKB = cfg.pageSizeKB;

    std::vector<std::unique_ptr<TraceStream>> streams;
    streams.reserve(setup.sources.size());
    for (const auto &src : setup.sources)
        streams.push_back(openTenantSource(src, base));
    TenantMix mix(std::move(streams));
    ssd.run(mix);

    std::vector<bench::TenantRow> rows;
    for (std::size_t i = 0; i < setup.sources.size(); ++i) {
        const TenantLatency &m = ssd.metrics().tenants[i];
        bench::TenantRow row;
        row.tenant = static_cast<TenantId>(i);
        row.source = setup.sources[i].label;
        row.reads = m.reads;
        row.writes = m.writes;
        row.avgReadUs = m.readLatency.mean() / static_cast<double>(kUs);
        row.p99Us = ticksToUs(m.readLatency.percentile(0.99));
        row.p999Us = ticksToUs(m.readLatency.percentile(0.999));
        if (setup.slo) {
            row.slo = true;
            row.throttleDeferrals = m.throttleDeferrals;
            row.throttleDeferredMs = ticksToMs(m.throttleDeferredTicks);
            const TenantSlo *t =
                setup.sloSpec.find(static_cast<TenantId>(i));
            if (t != nullptr && t->p99TargetUs != 0) {
                row.targeted = true;
                row.p99TargetUs = t->p99TargetUs;
                row.p99Attained =
                    m.readP99Us() <= static_cast<double>(t->p99TargetUs);
            }
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/**
 * The built-in noisy-neighbor configuration (`--slo noisy`): a
 * read-heavy victim (usr) with a p99 target shares the drive with a
 * write-heavy aggressor (ali.A cranked to ~60x its Table-3 arrival
 * rate) whose IOPS budget sits far below its offered load. Under
 * `none` the aggressor's writes and the erases they trigger blow
 * through the victim's tail; `throttle` holds the aggressor to its
 * budget and `wfq` gives the victim 8x the channel share.
 */
/**
 * The victim's read-p99 target, placed between the tail `throttle+wfq`
 * achieves and the tail `none` suffers in the noisy mix, so the golden
 * artifact pins attainment true for the enforced cell and false for the
 * unenforced one.
 */
constexpr std::uint64_t kNoisyVictimP99TargetUs = 1500;

CampaignSetup
noisySetup(bool small)
{
    CampaignSetup setup;
    setup.slo = true;

    TenantSource victim;
    victim.label = "usr:victim";
    victim.preset = "usr";
    victim.requests = small ? 4000 : 12000;
    victim.seed = 7;
    victim.hasSeed = true;

    TenantSource hog;
    hog.label = "ali.A:hog";
    hog.preset = "ali.A";
    hog.requests = small ? 8000 : 24000;
    hog.seed = 1007;
    hog.hasSeed = true;
    hog.intensity = 60.0;

    setup.sources = {victim, hog};
    setup.sloSpec = parseTenantSloSpec(
        "0:weight=8:p99=" + std::to_string(kNoisyVictimP99TargetUs) +
        ",1:weight=1:iops=2000:burst=32");
    return setup;
}

} // namespace

int
main(int argc, char **argv)
{
    // --tenants / --slo are ours; strip them before the (strict)
    // artifact parser.
    std::string tenant_spec;
    std::string slo_arg;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tenants") == 0) {
            if (i + 1 >= argc)
                AERO_FATAL("--tenants needs a mix spec (e.g. "
                           "'prxy:20000:7,hm:20000:1007,@trace.trc')");
            tenant_spec = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--slo") == 0) {
            if (i + 1 >= argc)
                AERO_FATAL("--slo needs 'noisy' or a tenant SLO spec "
                           "(e.g. '0:weight=8:p99=1500,1:iops=2000')");
            slo_arg = argv[++i];
            continue;
        }
        rest.push_back(argv[i]);
    }
    const auto artifacts = bench::parseArtifactArgs(
        static_cast<int>(rest.size()), rest.data());
    if (artifacts.small && !tenant_spec.empty())
        AERO_FATAL("--small runs the fixed regression-gate mix and "
                   "rejects --tenants");
    const bool noisy = slo_arg == "noisy";
    if (noisy && !tenant_spec.empty())
        AERO_FATAL("--slo noisy is a built-in mix and rejects --tenants");

    bench::header("Multi-tenant QoS: per-tenant read tails on a shared "
                  "drive");

    CampaignSetup setup;
    if (noisy) {
        setup = noisySetup(artifacts.small);
        tenant_spec = "noisy";
    } else {
        // The gate mix is hermetic: fixed requests and per-tenant seeds.
        if (tenant_spec.empty()) {
            tenant_spec = artifacts.small
                              ? "prxy:6000:7,hm:6000:1007,usr:6000:2007"
                              : "prxy:20000:7,hm:20000:1007,usr:20000:2007";
        }
        setup.sources = parseTenantMixSpec(tenant_spec);
        if (!slo_arg.empty()) {
            setup.slo = true;
            setup.sloSpec = parseTenantSloSpec(slo_arg);
        }
    }

    // SLO mode swaps the scheme breadth for the policy axis: the study
    // isolates enforcement, so two schemes x one PEC is plenty.
    const std::vector<SchemeKind> schemes =
        setup.slo ? (artifacts.small
                         ? std::vector<SchemeKind>{SchemeKind::Aero}
                         : std::vector<SchemeKind>{SchemeKind::Baseline,
                                                   SchemeKind::Aero})
        : artifacts.small
            ? std::vector<SchemeKind>{SchemeKind::Baseline,
                                      SchemeKind::Aero}
            : allSchemes();
    const std::vector<double> pecs =
        (setup.slo || artifacts.small) ? std::vector<double>{2500.0}
                                       : paperPecPoints();
    const std::vector<SloPolicy> policies =
        setup.slo ? std::vector<SloPolicy>{SloPolicy::None,
                                           SloPolicy::Throttle,
                                           SloPolicy::Wfq,
                                           SloPolicy::ThrottleWfq}
                  : std::vector<SloPolicy>{SloPolicy::None};

    std::vector<Cell> cells;
    for (const double pec : pecs)
        for (const SchemeKind scheme : schemes)
            for (const SloPolicy policy : policies)
                cells.push_back({scheme, pec, policy});

    std::printf("tenants: %s\n%zu cells on %d threads "
                "(env AERO_SWEEP_THREADS)\n",
                tenant_spec.c_str(), cells.size(),
                SweepRunner().threads());
    if (setup.slo)
        std::printf("SLO spec: %s\n",
                    renderTenantSloSpec(setup.sloSpec).c_str());

    Json journal_cfg = Json::object();
    journal_cfg["tenants"] = tenant_spec;
    journal_cfg["schemes"] = bench::jsonArray(schemes);
    journal_cfg["pecs"] = bench::jsonArray(pecs);
    journal_cfg["small"] = artifacts.small;
    // The campaign fingerprint gains the spec and policy axis only in
    // SLO mode, so plain journals keep their bytes.
    if (setup.slo) {
        journal_cfg["slo_spec"] = renderTenantSloSpec(setup.sloSpec);
        journal_cfg["slo_policies"] = bench::jsonArray(policies);
    }
    const auto results = runCampaign(
        artifacts.campaign, "tenant_qos", std::move(journal_cfg),
        [&](const CampaignScope &scope) {
            return parallelMapJournaled(
                scope.journal, cells,
                [&](std::size_t, const Cell &c) {
                    Json key =
                        scope.key("scheme", schemeKindName(c.scheme));
                    key["pec"] = c.pec;
                    if (setup.slo)
                        key["slo"] = enumName(c.policy);
                    return key;
                },
                [&](const Cell &c) { return runCell(c, setup); });
        });

    for (std::size_t pi = 0; pi < pecs.size(); ++pi) {
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            std::printf("\nPEC = %.1fK, scheme %s   (per-tenant read "
                        "latency, us)\n",
                        pecs[pi] / 1000.0, schemeKindName(schemes[si]));
            bench::rule();
            std::printf("%-3s %-16s", "t", "source");
            for (const SloPolicy p : policies)
                std::printf(" | %12s p99/p999", enumName(p));
            std::printf("\n");
            bench::rule();
            for (std::size_t t = 0; t < setup.sources.size(); ++t) {
                std::printf("%-3zu %-16s", t,
                            setup.sources[t].label.c_str());
                for (std::size_t li = 0; li < policies.size(); ++li) {
                    const std::size_t ci =
                        (pi * schemes.size() + si) * policies.size() + li;
                    const auto &row = results[ci][t];
                    std::printf(" | %12.1f / %8.1f", row.p99Us,
                                row.p999Us);
                }
                std::printf("\n");
            }
        }
    }
    bench::rule();
    bench::note(setup.slo
                    ? "every cell replays the identical merged stream "
                      "under queued arbitration; only the enforcement "
                      "policy (and scheme/conditioning) differs"
                    : "every cell replays the identical merged stream; "
                      "only the erase scheme and conditioning differ");

    const std::vector<std::string> axes =
        setup.slo
            ? std::vector<std::string>{"slo_policy", "scheme", "pec",
                                       "tenant"}
            : std::vector<std::string>{"scheme", "pec", "tenant"};
    bench::DevcharReport report("tenant_qos", axes, "aero-tenant/1");
    report.spec["tenants"] = tenant_spec;
    report.spec["small"] = artifacts.small;
    if (setup.slo)
        report.spec["slo_spec"] = renderTenantSloSpec(setup.sloSpec);
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        for (const bench::TenantRow &tenant : results[ci]) {
            Json row = Json::object();
            if (setup.slo)
                row["slo_policy"] = enumName(cells[ci].policy);
            row["scheme"] = schemeKindName(cells[ci].scheme);
            row["pec"] = cells[ci].pec;
            const Json metrics = toJson(tenant);
            for (std::size_t m = 0; m < metrics.size(); ++m) {
                const auto &[name, value] = metrics.member(m);
                row[name] = value;
            }
            report.addRow(std::move(row));
        }
    }
    artifacts.writeDevchar(report);
    return 0;
}
