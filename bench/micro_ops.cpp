/**
 * @file
 * google-benchmark microbenchmarks for the hot paths of the library:
 * EPT lookups, FELP predictions, erase sessions, event-queue throughput,
 * mapping updates, and full erase operations per scheme. These quantify
 * the (negligible) FTL-side overhead AERO adds per erase, supporting the
 * paper's implementation-overhead argument (section 6).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hh"
#include "core/aero_scheme.hh"
#include "core/felp.hh"
#include "sim/event_queue.hh"
#include "ssd/mapping.hh"

namespace aero
{
namespace
{

void
BM_EptLookup(benchmark::State &state)
{
    const auto p = ChipParams::tlc3d();
    const auto t = Ept::canonical(p);
    int rg = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.consSlots(1 + (rg % 5), rg % 9));
        ++rg;
    }
}
BENCHMARK(BM_EptLookup);

void
BM_FelpPredict(benchmark::State &state)
{
    const auto p = ChipParams::tlc3d();
    WearModel wear(p);
    Felp felp(p, wear, Ept::canonical(p), FelpConfig{});
    double f = p.gamma;
    for (auto _ : state) {
        benchmark::DoNotOptimize(felp.predict(2, f, 1500.0));
        f += p.delta / 3.0;
        if (f > p.gamma + 8.0 * p.delta)
            f = p.gamma;
    }
}
BENCHMARK(BM_FelpPredict);

void
BM_RangeIndex(benchmark::State &state)
{
    const auto p = ChipParams::tlc3d();
    double f = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(Ept::rangeIndex(p, f));
        f += 997.0;
        if (f > 50000.0)
            f = 0.0;
    }
}
BENCHMARK(BM_RangeIndex);

void
BM_EraseOperation(benchmark::State &state)
{
    const auto kind = static_cast<SchemeKind>(state.range(0));
    NandChip chip(ChipParams::tlc3d(), ChipGeometry{1, 64, 8}, 7);
    for (int b = 0; b < chip.numBlocks(); ++b)
        chip.ageBaseline(b, 2000);
    auto scheme = makeEraseScheme(kind, chip, SchemeOptions{});
    int b = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            eraseNow(*scheme, static_cast<BlockId>(b)));
        b = (b + 1) % chip.numBlocks();
    }
    state.SetLabel(schemeKindName(kind));
}
BENCHMARK(BM_EraseOperation)
    ->Arg(static_cast<int>(SchemeKind::Baseline))
    ->Arg(static_cast<int>(SchemeKind::Aero));

void
BM_EventQueueTimers(benchmark::State &state)
{
    // 1000 timers armed at seeded pseudo-random ticks, then drained.
    constexpr int kTimers = 1000;
    std::vector<Tick> when(kTimers);
    Rng rng(7);
    for (Tick &t : when)
        t = rng.below(kTimers);
    std::vector<Timer> timers(kTimers);
    int fired = 0;
    for (Timer &t : timers)
        t.init([](void *ctx) { ++*static_cast<int *>(ctx); }, &fired);
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < kTimers; ++i)
            eq.arm(when[i], timers[i]);
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * kTimers);
}
BENCHMARK(BM_EventQueueTimers);

void
BM_MappingUpdate(benchmark::State &state)
{
    PageMapping m(1 << 16, 4, 256, 64);
    Lpn lpn = 0;
    Ppn ppn = 0;
    const Ppn max_ppn = static_cast<Ppn>(4) * 256 * 64;
    for (auto _ : state) {
        m.invalidateLpn(lpn);
        benchmark::DoNotOptimize(m.update(lpn, ppn));
        lpn = (lpn + 1) % (1 << 16);
        ppn = (ppn + 1) % max_ppn;
    }
}
BENCHMARK(BM_MappingUpdate);

void
BM_WearModelQueries(benchmark::State &state)
{
    WearModel w(ChipParams::tlc3d());
    double wear = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(w.maxRber(wear, 1.5));
        wear += 1000.0;
        if (wear > 1e7)
            wear = 0.0;
    }
}
BENCHMARK(BM_WearModelQueries);

} // namespace
} // namespace aero

BENCHMARK_MAIN();
