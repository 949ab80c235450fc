#include "nand/population.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace aero
{

ChipPopulation::ChipPopulation(const PopulationConfig &cfg_)
    : cfg(cfg_), chipParams(ChipParams::forType(cfg_.type))
{
    AERO_CHECK(cfg.numChips > 0, "population needs at least one chip");
    const auto wear = WearModel::forType(cfg.type);
    Rng pop_rng(cfg.seed);
    chips.reserve(cfg.numChips);
    for (int i = 0; i < cfg.numChips; ++i) {
        const double chip_pv =
            pop_rng.lognormFactor(chipParams.chipPvSigma);
        chips.emplace_back(wear, cfg.geometry, pop_rng.next(), chip_pv);
    }
}

NandChip &
ChipPopulation::chip(int i)
{
    AERO_CHECK(i >= 0 && i < numChips(), "chip index out of range: ", i);
    return chips[static_cast<std::size_t>(i)];
}

int
ChipPopulation::totalBlocks() const
{
    int total = 0;
    for (const auto &c : chips)
        total += c.numBlocks();
    return total;
}

} // namespace aero
