/**
 * @file
 * The conventional Incremental Step Pulse Erasure scheme (paper section
 * 3.2): every erase loop applies the full, fixed tEP at a voltage that
 * rises by dVISPE per loop, until the verify-read passes.
 */

#ifndef AERO_ERASE_BASELINE_ISPE_HH
#define AERO_ERASE_BASELINE_ISPE_HH

#include "erase/scheme.hh"

namespace aero
{

/**
 * One ISPE erase session on @p chip: loop k pulses level k for the full
 * tEP until the verify-read passes or maxLoops is reached. DPES runs the
 * same loop with its damage-only @p stress_scale.
 */
std::unique_ptr<EraseSession> beginIspeErase(NandChip &chip, BlockId id,
                                             double stress_scale = 1.0);

class BaselineIspe : public EraseScheme
{
  public:
    BaselineIspe(NandChip &chip, const SchemeOptions &opts)
        : EraseScheme(chip, opts)
    {
    }

    SchemeKind kind() const override { return SchemeKind::Baseline; }

    std::unique_ptr<EraseSession> begin(BlockId id) override;
};

} // namespace aero

#endif // AERO_ERASE_BASELINE_ISPE_HH
