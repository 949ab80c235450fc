/**
 * @file
 * A population of NAND chips with chip-to-chip process variation — the
 * in-silico stand-in for the paper's 160-chip characterization testbed.
 */

#ifndef AERO_NAND_POPULATION_HH
#define AERO_NAND_POPULATION_HH

#include <cstdint>
#include <vector>

#include "nand/nand_chip.hh"

namespace aero
{

struct PopulationConfig
{
    ChipType type = ChipType::Tlc3d48L;
    int numChips = 160;
    ChipGeometry geometry{4, 30, 64};  //!< small blocks for fast studies
    std::uint64_t seed = 42;
};

class ChipPopulation
{
  public:
    explicit ChipPopulation(const PopulationConfig &cfg);

    int numChips() const { return static_cast<int>(chips.size()); }
    NandChip &chip(int i);
    const ChipParams &params() const { return chipParams; }
    const PopulationConfig &config() const { return cfg; }

    /** Total blocks across all chips. */
    int totalBlocks() const;

    /**
     * Visit `blocks_per_chip` evenly selected blocks from every chip (the
     * paper selects 120 blocks per chip at different physical locations).
     */
    template <typename Fn>
    void
    forEachSampledBlock(int blocks_per_chip, Fn &&fn)
    {
        for (int c = 0; c < numChips(); ++c)
            forEachSampledBlockOfChip(c, blocks_per_chip, fn);
    }

    /**
     * The same sampled-block walk restricted to one chip. Chips own all
     * of their mutable state (blocks, RNG streams), so callers may visit
     * different chips from different threads concurrently — the basis of
     * the chip-sharded characterization experiments.
     */
    template <typename Fn>
    void
    forEachSampledBlockOfChip(int chip_index, int blocks_per_chip,
                              Fn &&fn)
    {
        NandChip &c = chip(chip_index);
        const int n = c.numBlocks();
        const int take = blocks_per_chip < n ? blocks_per_chip : n;
        for (int i = 0; i < take; ++i) {
            const auto id = static_cast<BlockId>(
                (static_cast<long long>(i) * n) / take);
            fn(c, id);
        }
    }

    /**
     * The sampled walk of one chip with every block first conditioned
     * to @p pec P/E cycles by Baseline erases (the paper's conditioning
     * procedure); a block already past @p pec is visited as is.
     */
    template <typename Fn>
    void
    forEachConditionedBlockOfChip(int chip_index, int blocks_per_chip,
                                  double pec, Fn &&fn)
    {
        forEachSampledBlockOfChip(
            chip_index, blocks_per_chip, [&](NandChip &c, BlockId id) {
                const double aged = c.block(id).pec();
                if (aged < pec)
                    c.ageBaseline(id, static_cast<int>(pec - aged));
                fn(c, id);
            });
    }

  private:
    PopulationConfig cfg;
    ChipParams chipParams;
    std::vector<NandChip> chips;
};

} // namespace aero

#endif // AERO_NAND_POPULATION_HH
