/**
 * @file
 * Page-level logical-to-physical mapping (the conventional page-level FTL
 * the paper extends, after DFTL [70] but with the full table resident, as
 * in modern DRAM-backed SSDs).
 *
 * A PPN encodes (chip, chip-local block, page):
 *   ppn = (chip * blocksPerChip + block) * pagesPerBlock + page,
 * so ppn / pagesPerBlock is the drive-wide block index. That divide and
 * decode()'s run as multiplies (common/fast_div.hh): they sit on every
 * page op.
 *
 * Both tables hold 32-bit entries, 4 B per logical and 4 B per physical
 * page: the paper's Table-2 drive has 67.2M pages, far below 2^32. One
 * sentinel, kNoEntry (UINT32_MAX), means "unmapped" in either table. A
 * drive must have fewer than kNoEntry physical pages, so every page
 * number and the page count itself stay below the sentinel (the
 * constructor checks; SsdConfig::validate() rejects larger drives
 * before any table is allocated).
 * The interface keeps 64-bit Lpn/Ppn and translates the sentinel to
 * kInvalidPpn / kInvalidLpn.
 */

#ifndef AERO_SSD_MAPPING_HH
#define AERO_SSD_MAPPING_HH

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/fast_div.hh"
#include "common/types.hh"

namespace aero
{

struct PpnParts
{
    int chip;
    BlockId block;  //!< chip-local block id
    int page;
};

/** A mapped physical page and its logical owner, in table width. */
struct LivePage
{
    std::uint32_t lpn;
    std::uint32_t ppn;
};

class PageMapping
{
  public:
    /** The 32-bit "no entry" value of both tables. */
    static constexpr std::uint32_t kNoEntry =
        std::numeric_limits<std::uint32_t>::max();

    PageMapping(std::uint64_t logical_pages, int chips, int blocks_per_chip,
                int pages_per_block);

    std::uint64_t logicalPages() const { return l2p.size(); }

    /** Current physical location of a logical page (kInvalidPpn if none). */
    Ppn lookup(Lpn lpn) const;

    /** Logical owner of a physical page (kInvalidLpn if free/invalid). */
    Lpn reverseLookup(Ppn ppn) const;

    bool isValid(Ppn ppn) const { return reverseLookup(ppn) != kInvalidLpn; }

    /**
     * Map `lpn` to `ppn`, invalidating any previous location.
     * @return the invalidated old PPN, or kInvalidPpn.
     */
    Ppn update(Lpn lpn, Ppn ppn);

    /** @name Bulk conditioning (prefill, warmup GC, placement images) */
    /** @{ */

    /** The LPN -> PPN table, kNoEntry where unmapped. */
    const std::vector<std::uint32_t> &l2pTable() const { return l2p; }

    /**
     * Take `table` as the l2p table of this fresh mapping and rebuild
     * p2l, the valid counts and the mapped count from it: p2l only ever
     * holds the inverse of l2p.
     */
    void restore(std::span<const std::uint32_t> table);

    /**
     * Map LPNs first, first + stride, ... (`count` of them) to the
     * consecutive PPNs from `dst`, which lie in one block. Every LPN and
     * PPN must be unmapped: this is prefill on a fresh drive.
     */
    void mapFreshRun(Lpn first, Lpn stride, int count, Ppn dst);

    /**
     * Collect a block's mapped pages into `out` in page order.
     * @return how many there are (the block's valid count).
     */
    int livePages(int chip, BlockId block, std::span<LivePage> out) const;

    /**
     * Move `pages` to the consecutive PPNs from `dst`, which lie in one
     * block, as update() would one by one, with its checks: each
     * destination is unmapped, each page's LPN still maps to it, and no
     * valid count goes negative.
     */
    void relocate(std::span<const LivePage> pages, Ppn dst);

    /** Hint: `lpn`'s l2p entry is about to be read. */
    void
    prefetchLookup(Lpn lpn) const
    {
        __builtin_prefetch(&l2p[lpn]);
    }

    /**
     * Hint: `lpn` is about to be overwritten. Reads its l2p entry and
     * prefetches the p2l entry and valid count of the page it maps to.
     */
    void
    prefetchOldLocation(Lpn lpn) const
    {
        const std::uint32_t old = l2p[lpn];
        if (old == kNoEntry)
            return;
        __builtin_prefetch(&p2l[old], 1);
        __builtin_prefetch(&validCount[perBlock.div(old)], 1);
    }
    /** @} */

    /** Drop the mapping of a logical page (TRIM). */
    void invalidateLpn(Lpn lpn);

    /** Valid-page count of a chip-local block of a chip. */
    int validPages(int chip, BlockId block) const;

    /** Called by the block manager when a block is erased. */
    void onBlockErased(int chip, BlockId block);

    /** @name PPN encoding */
    /** @{ */
    Ppn encode(int chip, BlockId block, int page) const;
    PpnParts decode(Ppn ppn) const;
    /** @} */

    std::uint64_t mappedCount() const { return mapped; }

  private:
    std::size_t blockIndex(int chip, BlockId block) const;

    int chips;
    std::uint32_t blocksPerChip;
    std::uint32_t pagesPerBlock;
    Divider32 perBlock;  //!< ppn -> drive-wide block index
    Divider32 perChip;   //!< drive-wide block index -> chip
    std::vector<std::uint32_t> l2p;  //!< LPN -> PPN, or kNoEntry
    std::vector<std::uint32_t> p2l;  //!< PPN -> LPN, or kNoEntry
    std::vector<std::int32_t> validCount;  //!< per ppn / pagesPerBlock
    std::uint64_t mapped = 0;
};

} // namespace aero

#endif // AERO_SSD_MAPPING_HH
