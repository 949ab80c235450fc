#include "core/felp.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "nand/erase_model.hh"

namespace aero
{

Felp::Felp(const ChipParams &params, const WearModel &wear_, Ept ept,
           const FelpConfig &cfg_)
    : chip(params), wear(wear_), table(ept), cfg(cfg_)
{
}

double
Felp::allowedLeftoverSlots(double block_pec) const
{
    // The slot is the PEC's integer part mod kMemoSlots (slot 0 for a
    // PEC the cast cannot take); the key is the exact PEC, so fractional
    // PECs memoize too and collisions only evict.
    const std::size_t slot =
        block_pec >= 0.0 && block_pec < 0x1p62
            ? static_cast<std::size_t>(
                  static_cast<std::uint64_t>(block_pec) % kMemoSlots)
            : 0;
    MemoEntry &e = memo[slot];
    if (e.pec != block_pec) {
        e.slots = computeLeftoverSlots(block_pec);
        e.pec = block_pec;
    }
    return e.slots;
}

double
Felp::computeLeftoverSlots(double block_pec) const
{
    if (!cfg.useEccMargin)
        return 0.0;
    const double margin = static_cast<double>(cfg.rberRequirement) -
                          cfg.marginPad -
                          wear.predictedBaseRber(block_pec);
    if (margin <= 0.0)
        return 0.0;
    return wear.leftoverForResidual(margin);
}

FelpPrediction
Felp::predict(int next_loop, double fail_bits, double block_pec) const
{
    FelpPrediction p;
    p.range = Ept::rangeIndex(chip, fail_bits);
    const int cons = table.consSlots(next_loop, p.range);
    if (!cfg.useEccMargin) {
        p.slots = cons;
        p.allowedLeftover = 0.0;
        p.reduced = p.slots < chip.slotsPerLoop;
        return p;
    }
    const double allowed = allowedLeftoverSlots(block_pec);
    const double remaining = remainingSlotsFor(chip, fail_bits);
    // Fewest slots that keep the expected leftover within the margin...
    const int for_margin = static_cast<int>(
        std::ceil(std::max(0.0, remaining - allowed)));
    // ...but never more aggressive than the characterized table allows.
    const int aggr = table.aggrSlots(next_loop, p.range);
    p.slots = std::clamp(std::max(aggr, for_margin), 0, cons);
    p.allowedLeftover = std::max(
        0.0, std::min(allowed, remaining - static_cast<double>(p.slots)));
    p.reduced = p.slots < chip.slotsPerLoop;
    return p;
}

} // namespace aero
