/**
 * @file
 * GC/host contention campaign: runs the write-heavy prxy workload under
 * *queued* channel arbitration (ssd/channel.hh) over a (scheme, GC
 * policy, wear leveling) grid, and reports what the reclamation knobs
 * cost the host — write amplification split into its GC and WL parts,
 * erase counts, per-channel utilization, and the bus-queueing delay host
 * transfers suffer behind GC copies and erase command issue.
 *
 * Cells fan out over parallelMapJournaled, so `--checkpoint` resumes a
 * killed campaign and artifacts are byte-identical at any
 * AERO_SWEEP_THREADS. `--small` runs the Baseline-scheme slice of the
 * grid for the golden regression gate; every number emitted is a
 * deterministic simulation output, so the gate diffs at tight tolerance.
 */

#include "bench_records.hh"
#include "bench_util.hh"
#include "devchar/simstudy.hh"
#include "exp/sweep.hh"
#include "workload/synthetic.hh"

using namespace aero;

namespace
{

struct Cell
{
    SchemeKind scheme = SchemeKind::Baseline;
    GcPolicy gcPolicy = GcPolicy::Greedy;
    WearLevel wearLevel = WearLevel::None;
};

bench::GcCellResult
runCell(const Cell &cell, std::uint64_t requests)
{
    // A deliberately small drive (8 dies over 4 channels, 8K pages) so
    // even the gate run overwrites its footprint several times: GC and
    // WL must do real work for the cells to differ.
    SsdConfig cfg = SsdConfig::tiny();
    cfg.channels = 4;
    cfg.chipsPerChannel = 2;
    cfg.arbitration = Arbitration::Queued;
    cfg.scheme = cell.scheme;
    cfg.gcPolicy = cell.gcPolicy;
    cfg.wearLevel = cell.wearLevel;
    // Low enough that static WL actually migrates within a short run.
    cfg.wlEraseDelta = 2;
    cfg.initialPec = 2500.0;
    cfg.seed = 2024;

    Ssd ssd(cfg);

    SyntheticConfig wc;
    wc.spec = workloadByName("prxy");  // write-heavy: GC does real work
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = requests;
    wc.seed = 7;
    SyntheticTraceStream trace(wc);
    ssd.run(trace);

    const SsdMetrics &m = ssd.metrics();
    bench::GcCellResult r;
    r.avgReadUs = m.readLatency.mean() / static_cast<double>(kUs);
    r.p999Us = ticksToUs(m.readLatency.percentile(0.999));
    r.writeAmplification = m.writeAmplification();
    r.gcWriteAmplification = m.gcWriteAmplification();
    r.gcMigratedPages = m.gcMigratedPages;
    r.wlMigratedPages = m.wlMigratedPages;
    r.wlInvocations = m.wlInvocations;
    r.erases = m.erases;
    r.maxChannelUtil = m.maxChannelUtilization();
    r.hostWaitUs = m.avgHostChannelWaitUs();
    r.gcWaitUs = m.avgGcChannelWaitUs();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);

    bench::header("GC contention: reclamation policies under queued "
                  "channel arbitration");

    const std::vector<SchemeKind> schemes =
        artifacts.small
            ? std::vector<SchemeKind>{SchemeKind::Baseline}
            : std::vector<SchemeKind>{SchemeKind::Baseline,
                                      SchemeKind::Aero};
    const std::vector<GcPolicy> gc_policies = {
        GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::FifoLog};
    const std::vector<WearLevel> wear_levels = {
        WearLevel::None, WearLevel::Dynamic, WearLevel::Static};
    const std::uint64_t requests = artifacts.small ? 4000 : 40000;

    std::vector<Cell> cells;
    for (const SchemeKind scheme : schemes)
        for (const GcPolicy gc : gc_policies)
            for (const WearLevel wl : wear_levels)
                cells.push_back({scheme, gc, wl});

    std::printf("%zu cells (scheme x GC policy x wear leveling), %llu "
                "requests each, on %d threads (env AERO_SWEEP_THREADS)\n",
                cells.size(), static_cast<unsigned long long>(requests),
                SweepRunner().threads());

    Json journal_cfg = Json::object();
    journal_cfg["schemes"] = bench::jsonArray(schemes);
    journal_cfg["gc_policies"] = bench::jsonArray(gc_policies);
    journal_cfg["wear_levels"] = bench::jsonArray(wear_levels);
    journal_cfg["requests"] = requests;
    journal_cfg["arbitration"] = "queued";
    journal_cfg["small"] = artifacts.small;
    const auto results = runCampaign(
        artifacts.campaign, "gc_contention", std::move(journal_cfg),
        [&](const CampaignScope &scope) {
            return parallelMapJournaled(
                scope.journal, cells,
                [&](std::size_t, const Cell &c) {
                    Json key =
                        scope.key("scheme", schemeKindName(c.scheme));
                    key["gc_policy"] = enumName(c.gcPolicy);
                    key["wear_level"] = enumName(c.wearLevel);
                    return key;
                },
                [&](const Cell &c) { return runCell(c, requests); });
        });

    for (std::size_t si = 0; si < schemes.size(); ++si) {
        std::printf("\nscheme = %s\n", schemeKindName(schemes[si]));
        bench::rule();
        std::printf("%-13s %-8s %6s %6s %8s %9s %6s %8s %8s\n", "gc",
                    "wl", "WA", "gcWA", "wl-pages", "erases", "util",
                    "hostWus", "gcWus");
        bench::rule();
        for (std::size_t gi = 0; gi < gc_policies.size(); ++gi) {
            for (std::size_t wi = 0; wi < wear_levels.size(); ++wi) {
                const std::size_t idx =
                    (si * gc_policies.size() + gi) * wear_levels.size() +
                    wi;
                const bench::GcCellResult &r = results[idx];
                std::printf("%-13s %-8s %6.3f %6.3f %8llu %9llu %5.1f%% "
                            "%8.1f %8.1f\n",
                            enumName(gc_policies[gi]),
                            enumName(wear_levels[wi]),
                            r.writeAmplification,
                            r.gcWriteAmplification,
                            static_cast<unsigned long long>(
                                r.wlMigratedPages),
                            static_cast<unsigned long long>(r.erases),
                            r.maxChannelUtil * 100.0, r.hostWaitUs,
                            r.gcWaitUs);
            }
        }
    }
    bench::rule();
    bench::note("WA counts GC+WL copies; host/GC waits are mean bus-"
                "queueing delays under queued arbitration");

    bench::DevcharReport report("gc_contention",
                                {"scheme", "gc_policy", "wear_level"},
                                "aero-gc/1");
    report.spec["requests"] = requests;
    report.spec["arbitration"] = "queued";
    report.spec["workload"] = "prxy";
    report.spec["small"] = artifacts.small;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        Json row = Json::object();
        row["scheme"] = schemeKindName(cells[ci].scheme);
        row["gc_policy"] = enumName(cells[ci].gcPolicy);
        row["wear_level"] = enumName(cells[ci].wearLevel);
        const Json metrics = toJson(results[ci]);
        for (std::size_t m = 0; m < metrics.size(); ++m) {
            const auto &[name, value] = metrics.member(m);
            row[name] = value;
        }
        report.addRow(std::move(row));
    }
    artifacts.writeDevchar(report);
    return 0;
}
