#include "ssd/block_manager.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ssd/line_manager.hh"

namespace aero
{

BlockManager::BlockManager(const SsdConfig &cfg)
    : numChips(cfg.totalChips()), planesPerChip(cfg.geometry.planes),
      blocksPerPlane(cfg.geometry.blocksPerPlane),
      pagesPerBlock(cfg.geometry.pagesPerBlock),
      planesState(static_cast<std::size_t>(numChips) * planesPerChip),
      blockStates(static_cast<std::size_t>(numChips) * planesPerChip *
                      blocksPerPlane,
                  BlockState::Free),
      eraseCounts(blockStates.size(), 0), wearLevel(cfg.wearLevel)
{
    for (int c = 0; c < numChips; ++c) {
        for (int p = 0; p < planesPerChip; ++p) {
            auto &plane = planesState[planeIndex(c, p)];
            plane.freeList.reserve(blocksPerPlane);
            // Populate in reverse so allocation proceeds from block 0 up.
            for (int b = blocksPerPlane - 1; b >= 0; --b) {
                plane.freeList.push_back(
                    static_cast<BlockId>(p * blocksPerPlane + b));
            }
        }
    }
}

int
BlockManager::freeBlocks(int chip, int plane) const
{
    return static_cast<int>(
        planesState[planeIndex(chip, plane)].freeList.size());
}

BlockState
BlockManager::state(int chip, BlockId block) const
{
    return blockStates[blockIndex(chip, block)];
}

BlockId
BlockManager::takeFreeBlock(int chip, Plane &ps)
{
    // LIFO: the most recently freed block.
    std::size_t slot = ps.freeList.size() - 1;
    if (wearLevel == WearLevel::Dynamic) {
        // The least-erased free block, ties to the lowest block id.
        slot = 0;
        std::uint64_t best_ec = eraseCount(chip, ps.freeList[0]);
        for (std::size_t i = 1; i < ps.freeList.size(); ++i) {
            const BlockId b = ps.freeList[i];
            const std::uint64_t ec = eraseCount(chip, b);
            if (ec < best_ec || (ec == best_ec && b < ps.freeList[slot])) {
                slot = i;
                best_ec = ec;
            }
        }
    }
    const BlockId block = ps.freeList[slot];
    ps.freeList.erase(ps.freeList.begin() +
                      static_cast<std::ptrdiff_t>(slot));
    return block;
}

int
BlockManager::allocateRun(int chip, int plane, int want, BlockId &block,
                          int &page, bool for_gc)
{
    AERO_CHECK(want > 0, "allocating a run of ", want, " pages");
    auto &ps = planesState[planeIndex(chip, plane)];
    // GC relocations use their own write point so that a victim's live
    // pages always fit the block GC opened for them; user writes keep a
    // block in reserve for exactly that purpose.
    BlockId &open = for_gc ? ps.openGc : ps.open;
    int &cursor = for_gc ? ps.cursorGc : ps.cursor;
    if (open == kInvalidBlock) {
        const auto reserve =
            for_gc ? 0u : static_cast<std::size_t>(kGcReservedBlocks);
        if (ps.freeList.size() <= reserve)
            return 0;
        open = takeFreeBlock(chip, ps);
        cursor = 0;
        BlockState &st = blockStates[blockIndex(chip, open)];
        AERO_CHECK(st == BlockState::Free, "opened block ", open,
                   " was not Free");
        st = BlockState::Open;
        if (lines)
            lines->onBlockOpened(chip, open);
    }
    block = open;
    page = cursor;
    const int run = std::min(want, pagesPerBlock - cursor);
    cursor += run;
    if (cursor == pagesPerBlock) {
        BlockState &st = blockStates[blockIndex(chip, open)];
        AERO_CHECK(st == BlockState::Open, "filled block ", open,
                   " was not Open");
        st = BlockState::Full;
        open = kInvalidBlock;
        cursor = 0;
    }
    return run;
}

void
BlockManager::onBlockErased(int chip, BlockId block)
{
    auto &st = blockStates[blockIndex(chip, block)];
    AERO_CHECK(st == BlockState::Full,
               "erased block was not in Full state");
    st = BlockState::Free;
    eraseCounts[blockIndex(chip, block)] += 1;
    totalEraseCount += 1;
    const int plane = planeOf(block);
    planesState[planeIndex(chip, plane)].freeList.push_back(block);
}

std::vector<BlockId>
BlockManager::fullBlocks(int chip, int plane) const
{
    std::vector<BlockId> out;
    for (int b = 0; b < blocksPerPlane; ++b) {
        const auto id = static_cast<BlockId>(plane * blocksPerPlane + b);
        if (state(chip, id) == BlockState::Full)
            out.push_back(id);
    }
    return out;
}

std::uint64_t
BlockManager::eraseCount(int chip, BlockId block) const
{
    return eraseCounts[blockIndex(chip, block)];
}

std::uint64_t
BlockManager::maxEraseCount(int chip, int plane) const
{
    std::uint64_t max_ec = 0;
    for (int b = 0; b < blocksPerPlane; ++b) {
        const auto id = static_cast<BlockId>(plane * blocksPerPlane + b);
        max_ec = std::max(max_ec, eraseCount(chip, id));
    }
    return max_ec;
}

std::uint64_t
BlockManager::minEraseCount(int chip, int plane) const
{
    std::uint64_t min_ec = ~0ULL;
    for (int b = 0; b < blocksPerPlane; ++b) {
        const auto id = static_cast<BlockId>(plane * blocksPerPlane + b);
        min_ec = std::min(min_ec, eraseCount(chip, id));
    }
    return min_ec;
}

std::size_t
BlockManager::planeIndex(int chip, int plane) const
{
    AERO_CHECK(chip >= 0 && chip < numChips, "chip out of range");
    AERO_CHECK(plane >= 0 && plane < planesPerChip, "plane out of range");
    return static_cast<std::size_t>(chip) * planesPerChip + plane;
}

std::size_t
BlockManager::blockIndex(int chip, BlockId block) const
{
    AERO_CHECK(block < static_cast<BlockId>(planesPerChip * blocksPerPlane),
               "block out of range");
    return static_cast<std::size_t>(chip) * planesPerChip * blocksPerPlane +
           block;
}

} // namespace aero
