#include "devchar/lifetime.hh"

#include <numeric>

#include "core/aero_scheme.hh"
#include "exp/sweep_impl.hh"

namespace aero
{

LifetimeResult
LifetimeTester::run(SchemeKind scheme) const
{
    ChipFarm farm(cfg.farm);
    auto &pop = farm.population();
    LifetimeResult res;
    res.scheme = scheme;

    std::vector<std::unique_ptr<EraseScheme>> schemes;
    for (int c = 0; c < pop.numChips(); ++c)
        schemes.push_back(makeEraseScheme(scheme, pop.chip(c),
                                          cfg.schemeOptions));

    double latency_ms_sum = 0.0;
    double loops_sum = 0.0;
    std::uint64_t erases = 0;

    const int blocks = cfg.farm.blocksPerChip;

    // One checkpoint's worth of work on one chip: the chip (and its
    // scheme instance) is exclusively owned by one pool task, and the
    // partials below are folded into the global accumulators in chip
    // order, so any thread count produces identical results.
    struct ChipPartial
    {
        double latencyMsSum = 0.0;
        double loopsSum = 0.0;
        std::uint64_t erases = 0;
        /** Per-block max-RBER + scheme penalty, in block order. */
        std::vector<double> blockRber;
    };
    std::vector<int> chip_indices(
        static_cast<std::size_t>(pop.numChips()));
    std::iota(chip_indices.begin(), chip_indices.end(), 0);

    for (int pec = 0; pec < cfg.maxPec && !res.crossed;
         pec += cfg.checkpointEvery) {
        const auto partials = parallelMap(
            chip_indices,
            [&](int c) {
                ChipPartial part;
                NandChip &chip = pop.chip(c);
                const int n = std::min(blocks, chip.numBlocks());
                for (int b = 0; b < n; ++b) {
                    for (int i = 0; i < cfg.checkpointEvery; ++i) {
                        const auto out = eraseNow(
                            *schemes[c], static_cast<BlockId>(b));
                        part.latencyMsSum += ticksToMs(out.latency);
                        part.loopsSum += out.loops;
                        ++part.erases;
                    }
                }
                // Max-RBER under the reference retention condition,
                // including scheme-induced penalties.
                part.blockRber.reserve(static_cast<std::size_t>(n));
                for (int b = 0; b < n; ++b) {
                    part.blockRber.push_back(
                        chip.maxRber(static_cast<BlockId>(b)) +
                        schemes[c]->extraRber(static_cast<BlockId>(b)));
                }
                return part;
            },
            cfg.threads);
        // Population average at this checkpoint, folded in chip/block
        // order (matching the original serial loop exactly).
        double sum = 0.0;
        int n_blocks = 0;
        for (const auto &part : partials) {
            latency_ms_sum += part.latencyMsSum;
            loops_sum += part.loopsSum;
            erases += part.erases;
            for (const double r : part.blockRber) {
                sum += r;
                n_blocks += 1;
            }
        }
        const double avg = sum / n_blocks;
        const double point = pec + cfg.checkpointEvery;
        res.curve.emplace_back(point, avg);
        if (res.curve.size() == 1)
            res.freshMrber = avg;
        if (avg >= cfg.schemeOptions.rberRequirement) {
            res.crossed = true;
            res.lifetimePec = point;
        }
    }
    if (!res.crossed)
        res.lifetimePec = cfg.maxPec;
    res.avgEraseLatencyMs =
        erases ? latency_ms_sum / static_cast<double>(erases) : 0.0;
    res.avgLoops = erases ? loops_sum / static_cast<double>(erases) : 0.0;
    return res;
}

std::vector<LifetimeResult>
LifetimeTester::runAll(const CampaignScope &scope) const
{
    const std::vector<SchemeKind> kinds = {
        SchemeKind::Baseline, SchemeKind::IIspe, SchemeKind::Dpes,
        SchemeKind::AeroCons, SchemeKind::Aero};
    return parallelMapJournaled(
        scope.journal, kinds,
        [&](std::size_t, SchemeKind k) {
            return scope.key("scheme", schemeKindName(k));
        },
        [this](SchemeKind k) { return run(k); });
}

const Fields<LifetimeResult> &
LifetimeResult::fields()
{
    using L = LifetimeResult;
    static const Fields<L> table = {
        field("scheme", &L::scheme),
        field("curve", &L::curve),
        field("lifetime_pec", &L::lifetimePec),
        field("crossed", &L::crossed),
        field("avg_erase_ms", &L::avgEraseLatencyMs),
        field("avg_loops", &L::avgLoops),
        field("fresh_mrber", &L::freshMrber),
    };
    return table;
}

} // namespace aero
