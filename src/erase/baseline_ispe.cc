#include "erase/baseline_ispe.hh"

#include "common/logging.hh"

namespace aero
{

namespace
{

class BaselineSession : public EraseSession
{
  public:
    BaselineSession(NandChip &chip, BlockId id) : nand(chip), blk(id) {}

    bool
    nextSegment(EraseSegment &seg) override
    {
        if (done)
            return false;
        if (loop == 0)
            nand.beginErase(blk);
        ++loop;
        const auto pulse =
            nand.erasePulse(blk, loop, nand.params().slotsPerLoop);
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
    int loop = 0;
    bool done = false;
};

} // namespace

std::unique_ptr<EraseSession>
BaselineIspe::begin(BlockId id)
{
    return std::make_unique<BaselineSession>(nand, id);
}

} // namespace aero
