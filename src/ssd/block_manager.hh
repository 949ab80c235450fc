/**
 * @file
 * Physical block allocation and per-block FTL metadata: per-(chip, plane)
 * free pools and open write points, and one table holding every block's
 * state, erase count and fill stamp. Blocks move Free -> Open -> Full ->
 * (GC erase) -> Free. A plane reuses its free blocks LIFO, or
 * least-erased first under dynamic wear leveling.
 *
 * Each block that opens takes a fresh drive-wide fill stamp, kept across
 * its erase until it opens again, so GC policies can order blocks by
 * fill generation. The manager also picks both kinds of victim, the GC
 * victim (pickVictim) and the static wear-leveling victim
 * (pickColdVictim), each by one in-place scan of the plane when a victim
 * is needed: O(blocks per plane) once per job instead of upkeep on every
 * page write, since warmup invalidates thousands of pages per erase.
 */

#ifndef AERO_SSD_BLOCK_MANAGER_HH
#define AERO_SSD_BLOCK_MANAGER_HH

#include <vector>

#include "common/fast_div.hh"
#include "ssd/config.hh"

namespace aero
{

class PageMapping;

enum class BlockState : std::uint8_t { Free, Open, Full };

class BlockManager
{
  public:
    explicit BlockManager(const SsdConfig &cfg);

    int planeOf(BlockId block) const
    {
        return static_cast<int>(perPlane.div(block));
    }

    int freeBlocks(int chip, int plane) const;

    BlockState state(int chip, BlockId block) const;

    /**
     * Allocate the next page of the open block of (chip, plane), opening
     * a fresh block from the free pool when needed. One free block per
     * plane is reserved for GC destinations: user allocations cannot take
     * the last free block (for_gc = false), which guarantees GC always
     * finds a relocation target and the drive cannot wedge.
     * @return true and fills block/page, or false if the plane is out of
     *         space (caller must wait for GC).
     */
    bool
    allocate(int chip, int plane, BlockId &block, int &page,
             bool for_gc = false)
    {
        return allocateRun(chip, plane, 1, block, page, for_gc) == 1;
    }

    /**
     * Allocate up to `want` consecutive pages of one block, as `want`
     * calls to allocate() would hand them out until the open block
     * fills: a block opens exactly where allocate() would open it, and
     * takes its fill stamp there.
     * @return the pages granted (at most the open block's remainder,
     *         0 when the plane is out of space); block/page name the
     *         first of them.
     */
    int allocateRun(int chip, int plane, int want, BlockId &block,
                    int &page, bool for_gc = false);

    /** Free blocks a user allocation may still open. */
    static constexpr int kGcReservedBlocks = 1;

    /** Return an erased block to the free pool (bumps its erase count). */
    void onBlockErased(int chip, BlockId block);

    /**
     * GC victim of (chip, plane): the Full block with the lowest
     * (score, tie, block) under the configured GC policy's gcKey(), its
     * valid counts read from @p mapping; kInvalidBlock when no block is
     * Full.
     */
    BlockId pickVictim(int chip, int plane,
                       const PageMapping &mapping) const;

    /**
     * Static wear-leveling victim of (chip, plane): the least-erased
     * Full block (lowest id on ties), or kInvalidBlock unless the
     * plane's most-erased block, in any state, is at least
     * @p eraseDelta erases ahead of it.
     */
    BlockId pickColdVictim(int chip, int plane, int eraseDelta) const;

    /** Drive-wide stamp of the block's latest fill, 0 if never opened. */
    std::uint64_t fillStamp(int chip, BlockId block) const;

    /** Pages written since the block's last erase: all of a Full block,
     *  an open block's cursor, none of a Free one. */
    int programmedPages(int chip, BlockId block) const;

    /** @name Wear accounting (erase cycles since mount) */
    /** @{ */
    std::uint64_t eraseCount(int chip, BlockId block) const;
    std::uint64_t totalErases() const { return totalEraseCount; }
    /** @} */

    int chips() const { return numChips; }
    int planes() const { return planesPerChip; }
    std::size_t blockCount() const { return blockStates.size(); }

    bool operator==(const BlockManager &) const = default;

  private:
    struct Plane
    {
        std::vector<BlockId> freeList;
        BlockId open = kInvalidBlock;       //!< user write point
        int cursor = 0;
        BlockId openGc = kInvalidBlock;     //!< GC relocation write point
        int cursorGc = 0;

        bool operator==(const Plane &) const = default;
    };

    /** Detach the free block the plane opens next (see file comment). */
    BlockId takeFreeBlock(int chip, Plane &ps);

    std::size_t planeIndex(int chip, int plane) const;
    std::size_t blockIndex(int chip, BlockId block) const;
    /** blockIndex() of the plane's first block. */
    std::size_t planeBase(int chip, int plane) const
    {
        return planeIndex(chip, plane) * blocksPerPlane;
    }

    int numChips;
    int planesPerChip;
    int blocksPerPlane;
    Divider32 perPlane;  //!< chip-local block -> plane, without a divide
    int pagesPerBlock;
    std::vector<Plane> planesState;
    /** @name The block table, one entry per (chip, chip-local block) */
    /** @{ */
    std::vector<BlockState> blockStates;
    std::vector<std::uint64_t> eraseCounts;
    std::vector<std::uint64_t> fillStamps;  //!< 0 means "never opened"
    /** @} */
    std::uint64_t totalEraseCount = 0;
    std::uint64_t nextFillStamp = 1;
    WearLevel wearLevel;
    GcPolicy gcPolicy;
};

} // namespace aero

#endif // AERO_SSD_BLOCK_MANAGER_HH
