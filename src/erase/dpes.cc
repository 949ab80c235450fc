#include "erase/dpes.hh"

#include <cmath>

namespace aero
{

namespace
{

class DpesSession : public EraseSession
{
  public:
    DpesSession(NandChip &chip, BlockId id, double stress_scale)
        : nand(chip), blk(id), stressScale(stress_scale)
    {
    }

    bool
    nextSegment(EraseSegment &seg) override
    {
        if (done)
            return false;
        if (loop == 0)
            nand.beginErase(blk);
        ++loop;
        const auto pulse = nand.erasePulse(
            blk, loop, nand.params().slotsPerLoop, stressScale);
        const auto verify = nand.verifyRead(blk);
        seg.duration = pulse.duration + verify.duration;
        seg.last = false;
        result.latency += seg.duration;
        result.loops += 1;
        if (!verify.pass)
            result.eraseFailures += 1;
        if (verify.pass || loop >= nand.params().maxLoops) {
            const auto commit = nand.finishErase(blk);
            result.complete = commit.complete;
            result.leftoverSlots = commit.leftoverSlots;
            result.damage = commit.damage;
            result.slotsApplied = commit.slotsApplied;
            result.maxLevel = commit.maxLevel;
            seg.last = true;
            done = true;
        }
        return true;
    }

  private:
    NandChip &nand;
    BlockId blk;
    double stressScale;
    int loop = 0;
    bool done = false;
};

} // namespace

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
    return std::make_unique<DpesSession>(nand, id, scale);
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
