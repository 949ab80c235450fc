#include "ssd/wear_level.hh"

#include "ssd/block_manager.hh"

namespace aero
{

BlockId
pickColdVictim(int chip, int plane, const BlockManager &blocks,
               int eraseDelta)
{
    // Spread = most-worn block anywhere in the plane vs. the least-worn
    // *Full* block: cold data parks on young blocks and keeps them out of
    // the erase rotation, which is exactly what static WL breaks up.
    BlockId coldest = kInvalidBlock;
    std::uint64_t coldest_ec = 0;
    for (const BlockId b : blocks.fullBlocks(chip, plane)) {
        const std::uint64_t ec = blocks.eraseCount(chip, b);
        if (coldest == kInvalidBlock || ec < coldest_ec ||
            (ec == coldest_ec && b < coldest)) {
            coldest = b;
            coldest_ec = ec;
        }
    }
    if (coldest == kInvalidBlock)
        return kInvalidBlock;
    const std::uint64_t max_ec = blocks.maxEraseCount(chip, plane);
    if (max_ec < coldest_ec + static_cast<std::uint64_t>(eraseDelta))
        return kInvalidBlock;
    return coldest;
}

} // namespace aero
