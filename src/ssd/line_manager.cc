#include "ssd/line_manager.hh"

#include "common/logging.hh"
#include "ssd/block_manager.hh"
#include "ssd/mapping.hh"

namespace aero
{

LineManager::LineManager(const SsdConfig &cfg, const BlockManager &blocks_,
                         const PageMapping &mapping_)
    : numChips(cfg.totalChips()), planesPerChip(cfg.geometry.planes),
      blocksPerPlane(cfg.geometry.blocksPerPlane),
      pagesPerBlock(cfg.geometry.pagesPerBlock), policy(cfg.gcPolicy),
      blocks(blocks_), mapping(mapping_),
      openSeqs(static_cast<std::size_t>(numChips) * planesPerChip *
                   blocksPerPlane,
               0)
{
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
    // Blocks are scanned in id order, so a strict improvement in
    // (score, tie) leaves ties with the lowest block id.
    BlockId best = kInvalidBlock;
    GcKey best_key;
    for (BlockId b = lo; b < hi; ++b) {
        if (blocks.state(chip, b) != BlockState::Full)
            continue;
        const GcKey key = gcKey(policy, lineInfo(chip, b));
        if (best == kInvalidBlock || key.score < best_key.score ||
            (key.score == best_key.score && key.tie < best_key.tie)) {
            best = b;
            best_key = key;
        }
    }
    return best;
}

} // namespace aero
