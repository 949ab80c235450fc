#include "erase/baseline_ispe.hh"

#include "common/logging.hh"

namespace aero
{

namespace
{

class IspeSession : public EraseSession
{
  public:
    IspeSession(NandChip &chip, BlockId id, double stress_scale)
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
            commitErase(nand, blk);
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

std::unique_ptr<EraseSession>
beginIspeErase(NandChip &chip, BlockId id, double stress_scale)
{
    return std::make_unique<IspeSession>(chip, id, stress_scale);
}

std::unique_ptr<EraseSession>
BaselineIspe::begin(BlockId id)
{
    return beginIspeErase(nand, id);
}

} // namespace aero
