/**
 * @file
 * Physical block allocation: per-(chip, plane) free pools and open write
 * points. Blocks move Free -> Open -> Full -> (GC erase) -> Free.
 *
 * The manager also owns wear accounting (per-block erase counts since
 * mount) and tells an optional LineManager observer when a block opens,
 * so GC policies can order blocks by fill generation. Its block states
 * define the GC victim candidates: LineManager scans a plane for Full
 * blocks when GC needs a victim. A plane reuses its free blocks LIFO,
 * or least-erased first under dynamic wear leveling.
 */

#ifndef AERO_SSD_BLOCK_MANAGER_HH
#define AERO_SSD_BLOCK_MANAGER_HH

#include <vector>

#include "ssd/config.hh"

namespace aero
{

class LineManager;

enum class BlockState : std::uint8_t { Free, Open, Full };

class BlockManager
{
  public:
    explicit BlockManager(const SsdConfig &cfg);

    /** Wire the fill-stamp observer (FTL does this once at mount). */
    void setLineManager(LineManager *lines_) { lines = lines_; }

    int planeOf(BlockId block) const
    {
        return static_cast<int>(block) / blocksPerPlane;
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
     * fills: a block opens exactly where allocate() would open it.
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

    /** Full blocks of a plane (GC victim candidates). */
    std::vector<BlockId> fullBlocks(int chip, int plane) const;

    /** @name Wear accounting (erase cycles since mount) */
    /** @{ */
    std::uint64_t eraseCount(int chip, BlockId block) const;
    std::uint64_t maxEraseCount(int chip, int plane) const;
    std::uint64_t minEraseCount(int chip, int plane) const;
    std::uint64_t totalErases() const { return totalEraseCount; }
    /** @} */

    int chips() const { return numChips; }
    int planes() const { return planesPerChip; }

  private:
    struct Plane
    {
        std::vector<BlockId> freeList;
        BlockId open = kInvalidBlock;       //!< user write point
        int cursor = 0;
        BlockId openGc = kInvalidBlock;     //!< GC relocation write point
        int cursorGc = 0;
    };

    /** Detach the free block the plane opens next (see file comment). */
    BlockId takeFreeBlock(int chip, Plane &ps);

    std::size_t planeIndex(int chip, int plane) const;
    std::size_t blockIndex(int chip, BlockId block) const;

    int numChips;
    int planesPerChip;
    int blocksPerPlane;
    int pagesPerBlock;
    std::vector<Plane> planesState;
    std::vector<BlockState> blockStates;
    std::vector<std::uint64_t> eraseCounts;  //!< per (chip, block)
    std::uint64_t totalEraseCount = 0;
    WearLevel wearLevel;
    LineManager *lines = nullptr;
};

} // namespace aero

#endif // AERO_SSD_BLOCK_MANAGER_HH
