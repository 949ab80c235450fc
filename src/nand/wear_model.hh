/**
 * @file
 * Wear accounting and RBER model.
 *
 * Damage accumulates as the stress integral of applied erase pulses
 * (erase_model.hh). The WearModel converts accumulated damage back into
 * "equivalent PEC" by inverting the Baseline cumulative-damage curve, so a
 * block erased gently (AERO) ages more slowly than its nominal P/E count.
 * Max RBER under the paper's reference condition (1-year retention at
 * 30 C) is a function of equivalent PEC plus a residual term for
 * insufficiently erased blocks (Fig. 10).
 */

#ifndef AERO_NAND_WEAR_MODEL_HH
#define AERO_NAND_WEAR_MODEL_HH

#include <memory>

#include "common/interp.hh"
#include "nand/chip_params.hh"

namespace aero
{

class WearModel
{
  public:
    explicit WearModel(const ChipParams &params);

    /**
     * The process-wide model of a stock chip type (ChipParams::forType),
     * built on first use and shared by every drive and population of
     * that type. Safe to call from concurrent threads.
     */
    static std::shared_ptr<const WearModel> forType(ChipType type);

    /** Mean damage of one full Baseline erase at the given PEC. */
    double baselineDamagePerErase(double pec) const;

    /** Cumulative Baseline damage after `pec` cycles: C(pec). */
    double baselineCumDamage(double pec) const;

    /** Equivalent PEC for accumulated damage: C^{-1}(wear). */
    double equivalentPec(double wear) const;

    /** Max RBER of a completely erased block at equivalent PEC. */
    double rberBase(double peq) const;

    /** Extra max RBER from `leftover` slots of incomplete erasure. */
    double residualRber(double leftover_slots) const;

    /** Largest leftover whose residual RBER stays within `budget`
     *  (numeric inverse of residualRber; 0 budget -> offset slots). */
    double leftoverForResidual(double budget) const;

    /** Block max RBER for its wear + leftover (1-yr retention at 30 C). */
    double maxRber(double wear, double leftover_slots) const;

    /**
     * The FTL-side predictor AERO uses to size the ECC-capability margin:
     * conservative because it assumes worst-case (Baseline) wear for the
     * block's nominal PEC, never the lower true wear.
     */
    double predictedBaseRber(double pec) const;

    const ChipParams &params() const { return chip; }

  private:
    ChipParams chip;
    PiecewiseLinear cum;  //!< pec -> C(pec), built on a grid at ctor time
};

} // namespace aero

#endif // AERO_NAND_WEAR_MODEL_HH
