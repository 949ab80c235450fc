/**
 * @file
 * Channel-arbitration performance trajectory. Replays the same trace
 * through the same drive under the legacy closed-form channel model and
 * under queued (event-driven) arbitration, and records what the extra
 * ChannelGrant/DieOpComplete events cost the simulator — the queued
 * model roughly doubles the event count per page op, and this bench pins
 * the actual multiple so it cannot silently grow.
 *
 * Emits an `aero-contention-bench/1` artifact (BENCH_contention.json in
 * CI). The perf.bench_contention gate (tests/golden/run_gate.cmake)
 * compares the deterministic event counts and final ticks exactly —
 * under *both* arbitration models, so a behaviour change in either
 * trips it — and gates the relative simulation cost through a
 * machine-normalized threshold boolean, while machine-absolute rates
 * are ignored. Each row also pins `peak_pending`, the kernel's
 * high-water mark of live events: the drive's structure bounds it (one
 * op event per chip agent, one grant per channel), so a change that
 * lets the pending set grow with load shows up as a count change.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "bench_util.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace aero
{
namespace
{

using Clock = std::chrono::steady_clock;

struct ReplayResult
{
    double requestsPerSec = 0.0;      //!< best trial
    std::uint64_t eventsTotal = 0;    //!< deterministic
    std::uint64_t finalTick = 0;      //!< deterministic
    std::uint64_t erases = 0;         //!< deterministic
    std::uint64_t hostGrants = 0;     //!< deterministic (queued only)
    std::uint64_t gcGrants = 0;       //!< deterministic (queued only)
    std::uint64_t peakPending = 0;    //!< deterministic
};

double
replayOnce(Arbitration arb, const Trace &trace, ReplayResult &out)
{
    SsdConfig cfg = SsdConfig::tiny();
    // Both models run the identical drive; only arbitration differs.
    cfg.arbitration = arb;
    cfg.seed = 99;

    Ssd ssd(cfg);
    const auto t0 = Clock::now();
    ssd.run(trace);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    out.requestsPerSec = std::max(
        out.requestsPerSec, static_cast<double>(trace.size()) / secs);
    out.eventsTotal = ssd.eventQueue().processed();
    out.finalTick = ssd.eventQueue().now();
    out.erases = ssd.metrics().erases;
    out.hostGrants = ssd.metrics().hostChannelGrants;
    out.gcGrants = ssd.metrics().gcChannelGrants;
    out.peakPending = ssd.eventQueue().peakPending();
    return secs;
}

Json
replayRow(const char *arbitration, const ReplayResult &r,
          std::uint64_t requests)
{
    Json row = Json::object();
    row["metric"] = "replay";
    row["arbitration"] = arbitration;
    row["requests_per_sec"] = r.requestsPerSec;
    row["requests_total"] = requests;
    row["events_total"] = r.eventsTotal;
    row["final_tick"] = r.finalTick;
    row["erases"] = r.erases;
    row["host_channel_grants"] = r.hostGrants;
    row["gc_channel_grants"] = r.gcGrants;
    row["peak_pending"] = r.peakPending;
    row["events_per_request"] = static_cast<double>(r.eventsTotal) /
                                static_cast<double>(requests);
    return row;
}

int
benchMain(int argc, char **argv)
{
    const auto artifacts =
        bench::parseArtifactArgs(argc, argv, bench::BenchFlags::Small);

    const int trials = artifacts.small ? 7 : 11;
    const std::uint64_t requests = artifacts.small ? 6000 : 20000;

    bench::header("Channel-arbitration cost (legacy vs queued replay)");

    SyntheticConfig wc;
    wc.spec = workloadByName("prxy");
    wc.footprintPages = SsdConfig::tiny().logicalPages();
    wc.numRequests = requests;
    wc.seed = 31;
    const Trace trace = generateTrace(wc);

    // The two models run *interleaved* per trial and the slowdown is the
    // median per-trial ratio: a loaded machine inflates both halves of
    // the same trial window, and the median sheds the trials where the
    // scheduler hit one side only — the gated multiple stays a property
    // of the code, not of what else the host was running.
    ReplayResult legacy, queued;
    std::vector<double> ratios;
    for (int t = 0; t < trials; ++t) {
        const double secs_legacy =
            replayOnce(Arbitration::Legacy, trace, legacy);
        const double secs_queued =
            replayOnce(Arbitration::Queued, trace, queued);
        ratios.push_back(secs_queued / secs_legacy);
    }
    std::sort(ratios.begin(), ratios.end());
    const double slowdown = ratios[ratios.size() / 2];
    const double event_ratio = static_cast<double>(queued.eventsTotal) /
                               static_cast<double>(legacy.eventsTotal);

    std::printf("  %-8s %12s %14s %12s\n", "model", "requests/s",
                "events total", "final tick");
    std::printf("  %-8s %12.0f %14llu %12llu\n", "legacy",
                legacy.requestsPerSec,
                static_cast<unsigned long long>(legacy.eventsTotal),
                static_cast<unsigned long long>(legacy.finalTick));
    std::printf("  %-8s %12.0f %14llu %12llu\n", "queued",
                queued.requestsPerSec,
                static_cast<unsigned long long>(queued.eventsTotal),
                static_cast<unsigned long long>(queued.finalTick));
    std::printf("  queued costs %.2fx the wall clock and %.2fx the "
                "events of legacy\n",
                slowdown, event_ratio);
    bench::note("the slowdown threshold is machine-normalized (legacy "
                "re-measured per run); raw rates are not gated");

    Json doc = Json::object();
    doc["schema"] = "aero-contention-bench/1";
    doc["bench"] = "bench_contention";
    Json axes = Json::array();
    axes.push("metric");
    axes.push("arbitration");
    doc["axes"] = std::move(axes);

    Json spec = Json::object();
    spec["small"] = artifacts.small;
    spec["trials"] = trials;
    spec["requests"] = requests;
    doc["spec"] = std::move(spec);

    Json results = Json::array();
    results.push(replayRow("legacy", legacy, requests));
    results.push(replayRow("queued", queued, requests));
    doc["results"] = std::move(results);

    Json summary = Json::object();
    summary["event_ratio_queued_over_legacy"] = event_ratio;
    summary["replay_slowdown_queued"] = slowdown;
    // Gated form: queued arbitration pays for explicit bus queueing with
    // more events, but it must stay the same order of magnitude — a >3x
    // wall-clock multiple means the grant path regressed structurally.
    summary["queued_slowdown_le_3"] =
        static_cast<std::uint64_t>(slowdown <= 3.0 ? 1 : 0);
    doc["summary"] = std::move(summary);

    artifacts.writeJson(doc);
    if (artifacts.wantCsv())
        writeTextFile(artifacts.csvPath,
                      bench::devcharCsv(doc["results"]));
    return 0;
}

} // namespace
} // namespace aero

int
main(int argc, char **argv)
{
    return aero::benchMain(argc, argv);
}
