/**
 * @file
 * Line manager: stamps every block's fill generation and picks GC
 * victims by scanning the plane at the moment a victim is needed. The
 * candidates are the plane's blocks whose BlockManager state is Full;
 * the winner is the lowest (score, tie, block) under the configured GC
 * policy's gcKey(), a total order, so the pick is exact and
 * deterministic. A scan
 * costs O(blocks per plane) once per GC run instead of heap upkeep on
 * every page write: warmup invalidates thousands of pages per erase.
 *
 * The manager owns no valid counts: it reads them from the PageMapping,
 * erase counts from the BlockManager (which owns wear accounting) and
 * learns block openings from BlockManager's observer hook.
 */

#ifndef AERO_SSD_LINE_MANAGER_HH
#define AERO_SSD_LINE_MANAGER_HH

#include <cstdint>
#include <vector>

#include "ssd/config.hh"
#include "ssd/gc.hh"

namespace aero
{

class BlockManager;
class PageMapping;

class LineManager
{
  public:
    LineManager(const SsdConfig &cfg, const BlockManager &blocks,
                const PageMapping &mapping);

    /** Stamp a fresh fill generation (BlockManager observer). */
    void onBlockOpened(int chip, BlockId block);

    /** Best victim of the plane, kInvalidBlock when no block is Full. */
    BlockId pickVictim(int chip, int plane) const;

    /** Scoring inputs of a block, as the policy would see them. */
    GcLineInfo lineInfo(int chip, BlockId block) const;

  private:
    std::size_t blockIndex(int chip, BlockId block) const;

    int numChips;
    int planesPerChip;
    int blocksPerPlane;
    int pagesPerBlock;
    GcPolicy policy;
    const BlockManager &blocks;
    const PageMapping &mapping;
    std::vector<std::uint64_t> openSeqs;  //!< per (chip, chip-local block)
    std::uint64_t nextOpenSeq = 1;        //!< 0 means "never opened"
};

} // namespace aero

#endif // AERO_SSD_LINE_MANAGER_HH
