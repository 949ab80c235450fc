/**
 * @file
 * The virtual chip farm: the in-silico stand-in for the paper's
 * FPGA-based characterization infrastructure with its 160 real chips and
 * temperature-controlled oven. Provides conditioned block populations for
 * the experiments in experiments.hh / lifetime.hh.
 */

#ifndef AERO_DEVCHAR_FARM_HH
#define AERO_DEVCHAR_FARM_HH

#include "nand/population.hh"

namespace aero
{

struct FarmConfig
{
    ChipType type = ChipType::Tlc3d48L;
    /** The paper tests 160 chips / 120 blocks each; scale down for speed
     *  while keeping enough samples for stable statistics. */
    int numChips = 32;
    int blocksPerChip = 40;
    std::uint64_t seed = 0xfa51;
};

class ChipFarm
{
  public:
    explicit ChipFarm(const FarmConfig &cfg);

    ChipPopulation &population() { return pop; }
    const ChipParams &params() const { return pop.params(); }
    const FarmConfig &config() const { return cfg; }

    int totalSampledBlocks() const
    {
        return cfg.numChips * cfg.blocksPerChip;
    }

    /**
     * Visit every sampled block, conditioned to `pec` P/E cycles with the
     * Baseline scheme (the paper's conditioning procedure).
     */
    template <typename Fn>
    void
    forEachBlockAt(double pec, Fn &&fn)
    {
        for (int c = 0; c < pop.numChips(); ++c)
            pop.forEachConditionedBlockOfChip(c, cfg.blocksPerChip, pec, fn);
    }

  private:
    FarmConfig cfg;
    ChipPopulation pop;
};

} // namespace aero

#endif // AERO_DEVCHAR_FARM_HH
