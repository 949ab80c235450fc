#include "erase/dpes.hh"

#include <cmath>

#include "erase/baseline_ispe.hh"

namespace aero
{

bool
Dpes::active(BlockId id) const
{
    return nand.block(id).pec() < nand.params().dpesMaxPec;
}

std::unique_ptr<EraseSession>
Dpes::begin(BlockId id)
{
    const double scale =
        active(id) ? nand.params().dpesStressFactor : 1.0;
    return beginIspeErase(nand, id, scale);
}

Tick
Dpes::programLatency(BlockId id) const
{
    if (!active(id))
        return nand.params().tProg;
    const double factor =
        nand.params().dpesTProgFactor(nand.block(id).pec());
    return static_cast<Tick>(
        std::llround(static_cast<double>(nand.params().tProg) * factor));
}

double
Dpes::extraRber(BlockId id) const
{
    // The squeezed V_TH window costs extra raw bit errors while the
    // voltage-scaled mode is active (visible as DPES's early M_RBER bump
    // in Fig. 13).
    return active(id) ? nand.params().dpesExtraRber : 0.0;
}

} // namespace aero
