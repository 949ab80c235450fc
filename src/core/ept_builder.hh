/**
 * @file
 * Offline EPT construction via the paper's modified-ISPE (m-ISPE)
 * characterization (section 5.1): erase with 0.5-ms pulses, raising
 * V_ERASE every 7 pulses, reading the fail-bit count after every pulse.
 * From the per-block (F(i), remaining-slots) pairs the builder derives the
 * conservative column (max observed mtEP per fail-bit range) and the
 * aggressive column (conservative minus the leftover the ECC margin can
 * absorb at the PEC where each N_ISPE row typically occurs).
 */

#ifndef AERO_CORE_EPT_BUILDER_HH
#define AERO_CORE_EPT_BUILDER_HH

#include <vector>

#include "core/ept.hh"
#include "exp/campaign.hh"
#include "nand/population.hh"

namespace aero
{

/** Result of one m-ISPE measurement (one erase of one block). */
struct MIspeResult
{
    int slotsRequired = 0;   //!< R: 0.5-ms pulses until VR passed
    int nIspe = 0;           //!< ceil(R / 7): loops under original ISPE
    int finalLoopSlots = 0;  //!< mtEP(N_ISPE) in slots
    double mtBersMs = 0.0;   //!< estimated minimum tBERS (ms)
    /** F after each pulse; failAfterSlot[s] is the VR after slot s+1. */
    std::vector<double> failAfterSlot;

    static const Fields<MIspeResult> &fields();
};

/**
 * Measure a block's minimum erase timing with m-ISPE. Performs (and
 * commits) one real erase operation on the block.
 */
MIspeResult measureMIspe(NandChip &chip, BlockId id);

struct EptBuilderConfig
{
    int blocksPerChip = 12;
    /** PEC points at which blocks are characterized. */
    std::vector<double> pecPoints = {0, 500, 1000, 1500, 2000, 2500,
                                     3000, 3500, 4000, 4500, 5000};
    /** Margin parameters for deriving the aggressive column. */
    double marginPad = 12.0;
    int rberRequirement = 63;
};

class EptBuilder
{
  public:
    EptBuilder(ChipPopulation &population, const EptBuilderConfig &cfg);

    /**
     * Run the characterization campaign and derive the table. With a
     * journal-bearing @p scope the campaign checkpoints each chip task
     * and resumes from a prior journal, bit-identically.
     */
    Ept build(const CampaignScope &scope = {});

    /** Number of m-ISPE measurements taken by the last build(). */
    std::uint64_t measurements() const { return samples; }

  private:
    ChipPopulation &pop;
    EptBuilderConfig cfg;
    std::uint64_t samples = 0;
};

} // namespace aero

#endif // AERO_CORE_EPT_BUILDER_HH
