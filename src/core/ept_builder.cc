#include "core/ept_builder.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/felp.hh"
#include "devchar/chip_shard.hh"
#include "nand/erase_model.hh"

namespace aero
{

MIspeResult
measureMIspe(NandChip &chip, BlockId id)
{
    const ChipParams &p = chip.params();
    MIspeResult r;
    chip.beginErase(id);
    const int max_slots = p.maxLoops * p.slotsPerLoop;
    while (r.slotsRequired < max_slots) {
        const int level = 1 + r.slotsRequired / p.slotsPerLoop;
        chip.erasePulse(id, level, 1);
        const auto vr = chip.verifyRead(id);
        r.slotsRequired += 1;
        r.failAfterSlot.push_back(vr.failBits);
        if (vr.pass)
            break;
    }
    chip.finishErase(id);
    // Paper's estimate: N_ISPE = ceil(n/7), mtEP = 0.5*(1+((n-1) mod 7)).
    r.nIspe = (r.slotsRequired + p.slotsPerLoop - 1) / p.slotsPerLoop;
    r.finalLoopSlots = 1 + (r.slotsRequired - 1) % p.slotsPerLoop;
    const double tep_ms = ticksToMs(p.defaultTep());
    const double tvr_ms = ticksToMs(p.tVr);
    r.mtBersMs = static_cast<double>(r.nIspe - 1) * (tep_ms + tvr_ms) +
                 0.5 * static_cast<double>(r.finalLoopSlots) + tvr_ms;
    return r;
}

const Fields<MIspeResult> &
MIspeResult::fields()
{
    using M = MIspeResult;
    static const Fields<M> table = {
        field("slots_required", &M::slotsRequired),
        field("n_ispe", &M::nIspe),
        field("final_loop_slots", &M::finalLoopSlots),
        field("mtbers_ms", &M::mtBersMs),
        field("fail_after_slot", &M::failAfterSlot),
    };
    return table;
}

EptBuilder::EptBuilder(ChipPopulation &population,
                       const EptBuilderConfig &cfg_)
    : pop(population), cfg(cfg_)
{
}

Ept
EptBuilder::build(const CampaignScope &scope)
{
    const ChipParams &p = pop.params();
    samples = 0;

    // maxRemaining[row-1][range]: worst-case slots still needed when the
    // previous VR fell in `range`; rowPecSum/rowPecCount give the typical
    // PEC at which each row occurs (for the aggressive-margin column).
    double max_remaining[Ept::kRows][Ept::kRanges] = {};
    double row_pec_sum[Ept::kRows] = {};
    std::uint64_t row_pec_cnt[Ept::kRows] = {};

    const int shallow_slots = 2;  // tSE = 1 ms

    // The m-ISPE campaign runs on the shared chip-sharded engine (see
    // devchar/chip_shard.hh); folding the returned (pec, chip, block)-
    // ordered records keeps the derived EPT identical for any thread
    // count.
    const auto by_pec = measureChipSharded(
        pop, cfg.blocksPerChip, cfg.pecPoints,
        [](NandChip &chip, BlockId id, std::size_t) {
            return measureMIspe(chip, id);
        },
        scope);

    for (std::size_t pi = 0; pi < cfg.pecPoints.size(); ++pi) {
        const double pec = cfg.pecPoints[pi];
        for (const auto &m : by_pec[pi]) {
            samples += 1;

            const int row_max = std::min(m.nIspe, Ept::kRows);
            row_pec_sum[row_max - 1] += pec;
            row_pec_cnt[row_max - 1] += 1;

            // Row 1 (shallow remainder): F after the 1-ms probe
            // predicts the slots still needed to finish loop 1.
            if (static_cast<int>(m.failAfterSlot.size()) >
                    shallow_slots &&
                m.slotsRequired > shallow_slots &&
                m.slotsRequired <= p.slotsPerLoop) {
                const double f0 = m.failAfterSlot[shallow_slots - 1];
                const int rg = Ept::rangeIndex(p, f0);
                const double rem = m.slotsRequired - shallow_slots;
                max_remaining[0][rg] =
                    std::max(max_remaining[0][rg], rem);
            }
            // Rows >= 2: F at each loop boundary predicts the next
            // loop.
            for (int i = 1; i < m.nIspe; ++i) {
                const int boundary = i * p.slotsPerLoop;
                if (boundary >
                    static_cast<int>(m.failAfterSlot.size()))
                    break;
                const double f = m.failAfterSlot[boundary - 1];
                const int rg = Ept::rangeIndex(p, f);
                const int row = std::min(i + 1, Ept::kRows);
                const double rem = std::min<double>(
                    p.slotsPerLoop, m.slotsRequired - boundary);
                max_remaining[row - 1][rg] =
                    std::max(max_remaining[row - 1][rg], rem);
            }
        }
    }

    // Assemble the table. Unobserved cells keep the default full pulse
    // (conservative by construction). Monotonicity is enforced across
    // ranges: a higher fail-bit range can never need fewer slots.
    Ept t;
    WearModel wear(p);
    for (int row = 1; row <= Ept::kRows; ++row) {
        const int cap = row == 1 ? p.slotsPerLoop - shallow_slots
                                 : p.slotsPerLoop;
        int prev = 1;
        for (int rg = 0; rg < Ept::kRanges; ++rg) {
            int slots;
            if (max_remaining[row - 1][rg] > 0.0) {
                slots = static_cast<int>(
                    std::ceil(max_remaining[row - 1][rg]));
            } else if (rg >= 7) {
                slots = cap;  // F_HIGH region: no reduction
            } else {
                // Unobserved: interpolate from the model's linear
                // fail-bit relation (range k needs ~k+1 slots).
                slots = std::min(cap, rg + 1);
            }
            slots = std::clamp(slots, prev, cap);
            prev = slots;
            t.setCons(row, rg, slots);
        }
        // Aggressive column: spend the ECC margin available at the PEC
        // where this row typically occurs.
        const double typical_pec = row_pec_cnt[row - 1] > 0
            ? row_pec_sum[row - 1] /
              static_cast<double>(row_pec_cnt[row - 1])
            : cfg.pecPoints.back();
        const double margin = static_cast<double>(cfg.rberRequirement) -
                              cfg.marginPad -
                              wear.predictedBaseRber(typical_pec);
        const double allowed =
            margin <= 0.0 ? 0.0 : wear.leftoverForResidual(margin);
        for (int rg = 0; rg < Ept::kRanges; ++rg) {
            const int cons = t.consSlots(row, rg);
            const int reduction = static_cast<int>(std::floor(allowed));
            const int aggr = rg >= 7 ? cons
                                     : std::max(0, cons - reduction);
            t.setAggr(row, rg, aggr);
        }
    }
    return t;
}

} // namespace aero
