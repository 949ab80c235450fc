#include "erase/i_ispe.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nand/erase_model.hh"

namespace aero
{

class IIspeSession : public EraseSession
{
  public:
    IIspeSession(IntelligentIspe &scheme_, BlockId id)
        : scheme(scheme_), nand(scheme_.chip()), blk(id)
    {
    }

    bool
    nextSegment(EraseSegment &seg) override
    {
        if (done)
            return false;
        if (level == 0) {
            nand.beginErase(blk);
            level = scheme.lastLevel[blk];
            // Periodic downward probe: requirements are remembered from
            // past erases only, so occasionally test one level lower to
            // keep the memory from ratcheting far above the true need.
            auto &cnt = scheme.eraseCount[blk];
            cnt = static_cast<std::uint8_t>(
                (cnt + 1) % IntelligentIspe::kProbeInterval);
            if (cnt == 0 && level > 1)
                --level;
        } else {
            ++level;  // previous jump failed: escalate past the memory
        }
        level = std::min(level, nand.params().maxLevel);
        const auto pulse =
            nand.erasePulse(blk, level, nand.params().slotsPerLoop);
        const auto verify = nand.verifyRead(blk);
        seg.duration = pulse.duration + verify.duration;
        seg.last = false;
        result.latency += seg.duration;
        result.loops += 1;
        if (result.loops == 1) {
            firstLevel = level;
            firstFailBits = verify.pass ? 0.0 : verify.failBits;
        }
        if (!verify.pass)
            result.eraseFailures += 1;
        if (verify.pass || result.loops >= nand.params().maxLoops) {
            commitErase(nand, blk);
            updateMemory();
            seg.last = true;
            done = true;
        }
        return true;
    }

  private:
    /**
     * Update the per-block N_ISPE memory. The FTL reads the fail-bit
     * count of the failed first pulse: a small count (a residue of a
     * couple of delta or less) is a lagging-wordline artifact of the
     * skipped preamble, so the memory stays put (the block's conventional
     * need has not grown); a large count means the block really crossed
     * into the next loop band. A probe that succeeded at a lower level
     * moves the memory down. This bounds the memory near the true need --
     * it cannot ratchet away -- while leaving i-ISPE in the fail-retry
     * regime the paper observes on 3D chips.
     */
    void
    updateMemory()
    {
        auto &mem = scheme.lastLevel[blk];
        const ChipParams &p = nand.params();
        if (result.loops == 1) {
            mem = level;  // no-op unless this was a successful probe
            return;
        }
        if (firstFailBits > p.gamma + 2.0 * p.delta)
            mem = std::min(firstLevel + 1, p.maxLevel);
    }

    IntelligentIspe &scheme;
    NandChip &nand;
    BlockId blk;
    int level = 0;
    int firstLevel = 0;
    double firstFailBits = 0.0;
    bool done = false;
};

IntelligentIspe::IntelligentIspe(NandChip &chip, const SchemeOptions &opts)
    : EraseScheme(chip, opts),
      lastLevel(static_cast<std::size_t>(chip.numBlocks()), 1),
      eraseCount(static_cast<std::size_t>(chip.numBlocks()), 0)
{
    // On an already-cycled drive the FTL's N_ISPE history would reflect
    // past erases; seed the memory with the expected loop count for each
    // block's current wear so pre-aged experiments start in steady state.
    for (int b = 0; b < chip.numBlocks(); ++b) {
        const auto &blk = chip.block(static_cast<BlockId>(b));
        if (blk.pec() > 0.0) {
            lastLevel[b] = nIspeFor(
                chip.params(), chip.params().anchorSlots(blk.pec()));
        }
    }
}

std::unique_ptr<EraseSession>
IntelligentIspe::begin(BlockId id)
{
    AERO_CHECK(id < lastLevel.size(), "block id out of range");
    return std::make_unique<IIspeSession>(*this, id);
}

int
IntelligentIspe::rememberedLevel(BlockId id) const
{
    AERO_CHECK(id < lastLevel.size(), "block id out of range");
    return lastLevel[id];
}

} // namespace aero
