/**
 * @file
 * The chip-sharded characterization campaign engine shared by the
 * devchar experiments (Figs. 4, 7-11) and the EptBuilder's m-ISPE
 * campaign (Table 1).
 *
 * measureChipSharded() runs `measure(chip, id, pec_index)` on every
 * sampled block of every chip at every PEC point (conditioning each
 * block to the point first — the paper's procedure), chip-per-task
 * across the thread pool (AERO_SWEEP_THREADS). Each chip replays the
 * serial walk's schedule for itself — PEC points outermost, blocks in
 * sampling order — and the records are re-assembled in the serial
 * walk's (pec, chip, block) order. Chips are mutually independent (own
 * blocks, own RNG streams; see ChipPopulation::forEachSampledBlockOfChip),
 * so accumulating from the returned records is bit-identical to a
 * single-threaded pec-major loop, for any thread count.
 *
 * With a non-empty scope the engine checkpoints the campaign through a
 * CampaignJournal (exp/campaign.hh): every completed chip task is
 * flushed as one record keyed by `scope.prefix + {"chip": c}`, and a
 * resumed run decodes journaled chips instead of re-measuring them.
 * The record type is a declared record (exp/record.hh), which
 * round-trips every field bit-exactly through the JSON serializer, so a
 * killed-and-resumed campaign folds to the same bytes as an
 * uninterrupted one, at any thread count.
 */

#ifndef AERO_DEVCHAR_CHIP_SHARD_HH
#define AERO_DEVCHAR_CHIP_SHARD_HH

#include <iterator>
#include <numeric>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "exp/campaign.hh"
#include "exp/sweep_impl.hh"
#include "nand/population.hh"

namespace aero
{

/**
 * @return records[pec_index], concatenated in chip-major order; with an
 * empty @p scope nothing is journaled.
 */
template <typename Measure>
auto
measureChipSharded(ChipPopulation &pop, int blocks_per_chip,
                   const std::vector<double> &pecs, Measure measure,
                   const CampaignScope &scope, int threads = 0)
    -> std::vector<std::vector<std::invoke_result_t<
        Measure &, NandChip &, BlockId, std::size_t>>>
{
    using Sample = std::invoke_result_t<Measure &, NandChip &, BlockId,
                                        std::size_t>;
    using ChipRecords = std::vector<std::vector<Sample>>;
    std::vector<int> chip_indices(
        static_cast<std::size_t>(pop.numChips()));
    std::iota(chip_indices.begin(), chip_indices.end(), 0);

    auto per_chip = parallelMapJournaled(
        scope.journal, chip_indices,
        [&](std::size_t, int c) { return scope.key("chip", c); },
        [&](int c) {
            ChipRecords by_pec(pecs.size());
            for (std::size_t pi = 0; pi < pecs.size(); ++pi) {
                pop.forEachConditionedBlockOfChip(
                    c, blocks_per_chip, pecs[pi],
                    [&](NandChip &chip, BlockId id) {
                        by_pec[pi].push_back(measure(chip, id, pi));
                    });
            }
            return by_pec;
        },
        threads);

    for (const auto &chip_records : per_chip) {
        AERO_CHECK(chip_records.size() == pecs.size(),
                   "journaled chip task does not cover the ", pecs.size(),
                   " PEC points of this campaign");
    }
    ChipRecords by_pec(pecs.size());
    for (std::size_t pi = 0; pi < pecs.size(); ++pi) {
        for (auto &chip_records : per_chip) {
            by_pec[pi].insert(
                by_pec[pi].end(),
                std::make_move_iterator(chip_records[pi].begin()),
                std::make_move_iterator(chip_records[pi].end()));
        }
    }
    return by_pec;
}

} // namespace aero

#endif // AERO_DEVCHAR_CHIP_SHARD_HH
