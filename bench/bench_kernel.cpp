/**
 * @file
 * Simulation-kernel performance trajectory. Unlike the figure benches,
 * this binary measures the *simulator itself*: raw timer dispatch through
 * the kernel across a sweep of pending-set sizes, and the erase-path
 * step rate. Full-system replay is bench_contention's job.
 *
 * The sim-realistic pending regime is small, and the drive's structure
 * bounds it: each chip agent has at most one op timer pending and each
 * channel at most one grant, while backlog waits in the agents' FIFOs.
 * Whole perfbench replays on the 16-chip bench drive peak at 24 pending
 * events (`gc-churn`) and 17 (`fig14-grid`), and bench_contention pins
 * its replays' peaks as `peak_pending`. The kernel's sorted pending
 * array inserts in O(n), so the sweep's 256 and 1024 rows show where
 * that stops paying; no simulated drive comes near them. Each batch
 * arms its timers at seeded pseudo-random offsets, so inserts walk the
 * array as they do in a replay rather than always landing at one end.
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
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "core/aero_scheme.hh"
#include "sim/event_queue.hh"

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
 * Arm `batch` timers at pseudo-random offsets in [1, batch], drain,
 * repeat until `dispatchEvents` have fired; best of `trials`. The
 * offsets come from a fixed-seed table drawn before the clock starts.
 */
DispatchResult
benchDispatch(const BenchScale &s, int batch)
{
    const auto reps =
        static_cast<int>(s.dispatchEvents / static_cast<unsigned>(batch));
    constexpr int kPatterns = 16;
    std::vector<Tick> offsets(static_cast<std::size_t>(batch) * kPatterns);
    Rng rng(0x6b65726eULL);
    for (Tick &o : offsets)
        o = 1 + rng.below(static_cast<std::uint64_t>(batch));
    DispatchResult out;
    for (int t = 0; t < s.trials; ++t) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::vector<Timer> timers(static_cast<std::size_t>(batch));
        for (Timer &timer : timers)
            timer.init(&bumpCounter, &fired);
        const auto t0 = Clock::now();
        for (int r = 0; r < reps; ++r) {
            const Tick base = eq.now();
            const Tick *off =
                &offsets[static_cast<std::size_t>(r % kPatterns) * batch];
            for (int i = 0; i < batch; ++i)
                eq.arm(base + off[i], timers[i]);
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
        s.eraseOps = 500;
    }

    bench::header("Simulation-kernel performance (intrusive timers)");

    bench::DevcharReport report("bench_kernel",
                                {"metric", "kernel", "pending"},
                                "aero-kernel-bench/1");
    report.spec["small"] = artifacts.small;
    report.spec["trials"] = s.trials;
    report.spec["dispatch_events"] = s.dispatchEvents;
    report.spec["erase_ops"] = s.eraseOps;

    std::printf("  raw dispatch (Mevents/s, best of %d trials)\n",
                s.trials);
    std::printf("  %8s %10s\n", "pending", "timer");
    for (const int pending : kPendingSweep) {
        const DispatchResult timer = benchDispatch(s, pending);
        std::printf("  %8d %10.2f\n", pending, timer.meventsPerSec);
        Json row = Json::object();
        row["metric"] = "dispatch";
        row["kernel"] = "timer";
        row["pending"] = pending;
        row["mevents_per_sec"] = timer.meventsPerSec;
        row["events_total"] = timer.eventsTotal;
        report.addRow(std::move(row));
    }

    const EraseResult eraseBase = benchEraseSteps(SchemeKind::Baseline, s);
    const EraseResult eraseAero = benchEraseSteps(SchemeKind::Aero, s);

    std::printf("  erase steps   baseline %7.1f ns/step   aero %7.1f "
                "ns/step\n",
                eraseBase.nsPerStep, eraseAero.nsPerStep);
    bench::note("raw rates are machine-absolute and not gated");

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
