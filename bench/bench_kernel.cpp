/**
 * @file
 * Simulation-kernel performance trajectory. Unlike the figure benches,
 * this binary measures the *simulator itself*: raw event dispatch through
 * the tagged kernel across a sweep of pending-set sizes, full-system
 * replay throughput, and the erase-path step rate. The sim-realistic
 * pending regime is small — one in-flight operation per chip plus the
 * trace pump — which is why the sweep leads with small sets.
 *
 * Emits an `aero-kernel-bench/1` JSON artifact (BENCH_kernel.json in CI).
 * The perf.bench_kernel gate (tests/golden/run_gate.cmake) diffs it
 * against the checked-in baseline: deterministic counts compare exactly
 * and the machine-absolute rates are ignored (end-to-end speed is
 * compared change against parent by perfbench/, not here).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

#include "bench_util.hh"
#include "core/aero_scheme.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace aero
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct BenchScale
{
    int trials = 5;
    std::uint64_t dispatchEvents = 2048 * 1024;  //!< per trial, per batch
    std::uint64_t replayRequests = 20000;
    int eraseOps = 2000;    //!< erase operations per scheme
};

/** Pending-set sizes for the dispatch sweep. */
constexpr int kPendingSweep[] = {16, 64, 256, 1024};

struct DispatchResult
{
    double meventsPerSec = 0.0;     //!< best trial
    std::uint64_t eventsTotal = 0;  //!< per trial (deterministic)
};

void
bumpCounter(void *ctx)
{
    *static_cast<std::uint64_t *>(ctx) += 1;
}

/**
 * Fill the pending set with `batch` timers at scattered ticks, drain,
 * repeat until `dispatchEvents` have fired; best of `trials`.
 */
DispatchResult
benchDispatch(const BenchScale &s, int batch)
{
    const auto reps =
        static_cast<int>(s.dispatchEvents / static_cast<unsigned>(batch));
    DispatchResult out;
    for (int t = 0; t < s.trials; ++t) {
        EventQueue eq;
        std::uint64_t fired = 0;
        const auto t0 = Clock::now();
        for (int r = 0; r < reps; ++r) {
            const Tick base = eq.now();
            for (int i = 0; i < batch; ++i)
                eq.scheduleTimerAt(base + (i * 7919) % batch + 1,
                                   &bumpCounter, &fired);
            eq.run();
        }
        const double secs = secondsSince(t0);
        AERO_CHECK(fired == static_cast<std::uint64_t>(reps) * batch,
                   "dispatch bench lost events");
        out.eventsTotal = fired;
        out.meventsPerSec =
            std::max(out.meventsPerSec,
                     static_cast<double>(fired) / secs / 1e6);
    }
    return out;
}

struct ReplayResult
{
    double requestsPerSec = 0.0;       //!< best trial
    std::uint64_t requestsTotal = 0;
    std::uint64_t eventsTotal = 0;     //!< eq.processed() (deterministic)
    std::uint64_t finalTick = 0;       //!< eq.now() (deterministic)
};

/** Full-system replay: trace admission through chip-op completions. */
ReplayResult
benchReplay(const BenchScale &s)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.seed = 99;

    SyntheticConfig wc;
    wc.spec = workloadByName("prxy");
    wc.footprintPages = cfg.logicalPages();
    wc.numRequests = s.replayRequests;
    wc.seed = 31;
    const Trace trace = generateTrace(wc);

    ReplayResult out;
    out.requestsTotal = trace.size();
    const int replay_trials = std::max(2, s.trials / 2);
    for (int t = 0; t < replay_trials; ++t) {
        Ssd ssd(cfg);
        const auto t0 = Clock::now();
        ssd.run(trace);
        const double secs = secondsSince(t0);
        out.requestsPerSec =
            std::max(out.requestsPerSec,
                     static_cast<double>(trace.size()) / secs);
        out.eventsTotal = ssd.eventQueue().processed();
        out.finalTick = ssd.eventQueue().now();
    }
    return out;
}

struct EraseResult
{
    double nsPerStep = 0.0;          //!< elapsed / loops, best trial
    std::uint64_t erasesTotal = 0;   //!< per trial (deterministic)
    std::uint64_t loopsTotal = 0;    //!< per trial (deterministic)
};

/** Erase-path step rate: session begin / nextSegment / outcome. */
EraseResult
benchEraseSteps(SchemeKind kind, const BenchScale &s)
{
    const auto params = ChipParams::forType(ChipType::Tlc3d48L);
    const ChipGeometry geom{1, 64, 8};
    EraseResult out;
    double best_secs = 0.0;
    for (int t = 0; t < s.trials; ++t) {
        NandChip chip(params, geom, 2024, 1.0);
        for (int b = 0; b < chip.numBlocks(); ++b)
            chip.ageBaseline(static_cast<BlockId>(b), 2000);
        SchemeOptions opts;
        opts.seed = 7;
        auto scheme = makeEraseScheme(kind, chip, opts);
        std::uint64_t loops = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < s.eraseOps; ++i) {
            const auto blk =
                static_cast<BlockId>(i % chip.numBlocks());
            loops += eraseNow(*scheme, blk).loops;
        }
        const double secs = secondsSince(t0);
        out.erasesTotal = static_cast<std::uint64_t>(s.eraseOps);
        out.loopsTotal = loops;
        if (best_secs == 0.0 || secs < best_secs)
            best_secs = secs;
    }
    out.nsPerStep =
        best_secs * 1e9 / static_cast<double>(out.loopsTotal);
    return out;
}

int
benchMain(int argc, char **argv)
{
    const auto artifacts =
        bench::parseArtifactArgs(argc, argv, bench::BenchFlags::Small);

    BenchScale s;
    if (artifacts.small) {
        s.trials = 3;
        s.dispatchEvents = 512 * 1024;
        s.replayRequests = 6000;
        s.eraseOps = 500;
    }

    bench::header("Simulation-kernel performance (tagged-event kernel)");

    bench::DevcharReport report("bench_kernel",
                                {"metric", "kernel", "pending"},
                                "aero-kernel-bench/1");
    report.spec["small"] = artifacts.small;
    report.spec["trials"] = s.trials;
    report.spec["dispatch_events"] = s.dispatchEvents;
    report.spec["replay_requests"] = s.replayRequests;
    report.spec["erase_ops"] = s.eraseOps;

    std::printf("  raw dispatch (Mevents/s, best of %d trials)\n",
                s.trials);
    std::printf("  %8s %10s\n", "pending", "tagged");
    for (const int pending : kPendingSweep) {
        const DispatchResult tagged = benchDispatch(s, pending);
        std::printf("  %8d %10.2f\n", pending, tagged.meventsPerSec);
        Json row = Json::object();
        row["metric"] = "dispatch";
        row["kernel"] = "tagged";
        row["pending"] = pending;
        row["mevents_per_sec"] = tagged.meventsPerSec;
        row["events_total"] = tagged.eventsTotal;
        report.addRow(std::move(row));
    }

    const ReplayResult replay = benchReplay(s);
    const EraseResult eraseBase = benchEraseSteps(SchemeKind::Baseline, s);
    const EraseResult eraseAero = benchEraseSteps(SchemeKind::Aero, s);

    std::printf("  full replay   %10.0f requests/s  (%llu events, "
                "%.1f events/request)\n",
                replay.requestsPerSec,
                static_cast<unsigned long long>(replay.eventsTotal),
                static_cast<double>(replay.eventsTotal) /
                    static_cast<double>(replay.requestsTotal));
    std::printf("  erase steps   baseline %7.1f ns/step   aero %7.1f "
                "ns/step\n",
                eraseBase.nsPerStep, eraseAero.nsPerStep);
    bench::note("raw rates are machine-absolute and not gated");

    {
        Json row = Json::object();
        row["metric"] = "replay";
        row["requests_per_sec"] = replay.requestsPerSec;
        row["requests_total"] = replay.requestsTotal;
        row["events_total"] = replay.eventsTotal;
        row["final_tick"] = replay.finalTick;
        row["events_per_request"] =
            static_cast<double>(replay.eventsTotal) /
            static_cast<double>(replay.requestsTotal);
        report.addRow(std::move(row));
    }
    const std::pair<const char *, const EraseResult *> erows[] = {
        {"erase_baseline", &eraseBase},
        {"erase_aero", &eraseAero},
    };
    for (const auto &[name, r] : erows) {
        Json row = Json::object();
        row["metric"] = name;
        row["ns_per_erase_step"] = r->nsPerStep;
        row["erases_total"] = r->erasesTotal;
        row["loops_total"] = r->loopsTotal;
        report.addRow(std::move(row));
    }
    artifacts.writeDevchar(report);
    return 0;
}

} // namespace
} // namespace aero

int
main(int argc, char **argv)
{
    return aero::benchMain(argc, argv);
}
