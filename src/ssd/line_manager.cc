#include "ssd/line_manager.hh"

#include "common/logging.hh"
#include "ssd/block_manager.hh"
#include "ssd/mapping.hh"

namespace aero
{

LineManager::LineManager(const SsdConfig &cfg, const GcPolicy &policy_,
                         const BlockManager &blocks_,
                         const PageMapping &mapping_)
    : numChips(cfg.totalChips()), planesPerChip(cfg.geometry.planes),
      blocksPerPlane(cfg.geometry.blocksPerPlane),
      pagesPerBlock(cfg.geometry.pagesPerBlock), policy(policy_),
      blocks(blocks_), mapping(mapping_),
      openSeqs(static_cast<std::size_t>(numChips) * planesPerChip *
                   blocksPerPlane,
               0)
{
}

bool
LineManager::less(const Key &a, const Key &b)
{
    if (a.score != b.score)
        return a.score < b.score;
    if (a.tie != b.tie)
        return a.tie < b.tie;
    return a.block < b.block;
}

std::size_t
LineManager::blockIndex(int chip, BlockId block) const
{
    AERO_CHECK(chip >= 0 && chip < numChips, "chip out of range");
    AERO_CHECK(block < static_cast<BlockId>(planesPerChip * blocksPerPlane),
               "block out of range");
    return static_cast<std::size_t>(chip) * planesPerChip * blocksPerPlane +
           block;
}

GcLineInfo
LineManager::lineInfo(int chip, BlockId block) const
{
    GcLineInfo info;
    info.block = block;
    info.validPages = mapping.validPages(chip, block);
    info.pagesPerBlock = pagesPerBlock;
    info.openSeq = openSeqs[blockIndex(chip, block)];
    info.eraseCount = blocks.eraseCount(chip, block);
    return info;
}

LineManager::Key
LineManager::keyFor(int chip, BlockId block) const
{
    const GcLineInfo info = lineInfo(chip, block);
    return Key{policy.score(info), policy.tieBreak(info), block};
}

void
LineManager::onBlockOpened(int chip, BlockId block)
{
    openSeqs[blockIndex(chip, block)] = nextOpenSeq++;
}

BlockId
LineManager::pickVictim(int chip, int plane) const
{
    AERO_CHECK(plane >= 0 && plane < planesPerChip, "plane out of range");
    const auto lo = static_cast<BlockId>(plane * blocksPerPlane);
    const auto hi = lo + static_cast<BlockId>(blocksPerPlane);
    // Filters states in place rather than through BlockManager::fullBlocks
    // (a vector per pick measured +1.4% peak RSS on fig14-grid).
    Key best;
    for (BlockId b = lo; b < hi; ++b) {
        if (blocks.state(chip, b) != BlockState::Full)
            continue;
        const Key key = keyFor(chip, b);
        if (best.block == kInvalidBlock || less(key, best))
            best = key;
    }
    return best.block;
}

} // namespace aero
