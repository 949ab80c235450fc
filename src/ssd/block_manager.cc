#include "ssd/block_manager.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ssd/mapping.hh"

namespace aero
{

BlockManager::BlockManager(const SsdConfig &cfg)
    : numChips(cfg.totalChips()), planesPerChip(cfg.geometry.planes),
      blocksPerPlane(cfg.geometry.blocksPerPlane),
      perPlane(static_cast<std::uint32_t>(blocksPerPlane)),
      pagesPerBlock(cfg.geometry.pagesPerBlock),
      planesState(static_cast<std::size_t>(numChips) * planesPerChip),
      blockStates(planesState.size() * blocksPerPlane, BlockState::Free),
      eraseCounts(blockStates.size(), 0), fillStamps(blockStates.size(), 0),
      wearLevel(cfg.wearLevel), gcPolicy(cfg.gcPolicy)
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
        const auto bi = blockIndex(chip, open);
        AERO_CHECK(blockStates[bi] == BlockState::Free, "opened block ",
                   open, " was not Free");
        blockStates[bi] = BlockState::Open;
        fillStamps[bi] = nextFillStamp++;
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
    const auto bi = blockIndex(chip, block);
    AERO_CHECK(blockStates[bi] == BlockState::Full,
               "erased block was not in Full state");
    blockStates[bi] = BlockState::Free;
    eraseCounts[bi] += 1;
    totalEraseCount += 1;
    const int plane = planeOf(block);
    planesState[planeIndex(chip, plane)].freeList.push_back(block);
}

BlockId
BlockManager::pickVictim(int chip, int plane,
                         const PageMapping &mapping) const
{
    // Blocks are scanned in id order, so a strict improvement in
    // (score, tie) leaves ties with the lowest block id.
    const auto first = static_cast<BlockId>(plane * blocksPerPlane);
    const auto base = planeBase(chip, plane);
    BlockId best = kInvalidBlock;
    GcKey best_key;
    for (int i = 0; i < blocksPerPlane; ++i) {
        if (blockStates[base + i] != BlockState::Full)
            continue;
        GcLineInfo line;
        line.block = first + static_cast<BlockId>(i);
        line.validPages = mapping.validPages(chip, line.block);
        line.pagesPerBlock = pagesPerBlock;
        line.openSeq = fillStamps[base + i];
        line.eraseCount = eraseCounts[base + i];
        const GcKey key = gcKey(gcPolicy, line);
        if (best == kInvalidBlock || key.score < best_key.score ||
            (key.score == best_key.score && key.tie < best_key.tie)) {
            best = line.block;
            best_key = key;
        }
    }
    return best;
}

BlockId
BlockManager::pickColdVictim(int chip, int plane, int eraseDelta) const
{
    // Spread = most-worn block anywhere in the plane vs. the least-worn
    // *Full* block: cold data parks on young blocks and keeps them out of
    // the erase rotation, which is exactly what static WL breaks up.
    // Scanning in id order leaves ties with the lowest block id.
    const auto first = static_cast<BlockId>(plane * blocksPerPlane);
    const auto base = planeBase(chip, plane);
    BlockId coldest = kInvalidBlock;
    std::uint64_t coldest_ec = 0;
    std::uint64_t max_ec = 0;
    for (int i = 0; i < blocksPerPlane; ++i) {
        const std::uint64_t ec = eraseCounts[base + i];
        max_ec = std::max(max_ec, ec);
        if (blockStates[base + i] == BlockState::Full &&
            (coldest == kInvalidBlock || ec < coldest_ec)) {
            coldest = first + static_cast<BlockId>(i);
            coldest_ec = ec;
        }
    }
    if (coldest == kInvalidBlock ||
        max_ec < coldest_ec + static_cast<std::uint64_t>(eraseDelta))
        return kInvalidBlock;
    return coldest;
}

std::uint64_t
BlockManager::fillStamp(int chip, BlockId block) const
{
    return fillStamps[blockIndex(chip, block)];
}

int
BlockManager::programmedPages(int chip, BlockId block) const
{
    switch (state(chip, block)) {
      case BlockState::Free:
        return 0;
      case BlockState::Full:
        return pagesPerBlock;
      case BlockState::Open:
        break;
    }
    const Plane &ps = planesState[planeIndex(chip, planeOf(block))];
    return block == ps.open ? ps.cursor : ps.cursorGc;
}

std::uint64_t
BlockManager::eraseCount(int chip, BlockId block) const
{
    return eraseCounts[blockIndex(chip, block)];
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
    AERO_CHECK(chip >= 0 && chip < numChips, "chip out of range");
    AERO_CHECK(block < static_cast<BlockId>(planesPerChip * blocksPerPlane),
               "block out of range");
    return static_cast<std::size_t>(chip) * planesPerChip * blocksPerPlane +
           block;
}

} // namespace aero
