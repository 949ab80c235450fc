/**
 * @file
 * Drive conditioning in two steps, placement then wear.
 *
 * Placement (prefill and warmup, with warmup's inline GC) moves only the
 * FTL's page map, block table and write pointer. It logs each block its
 * GC erases, in order, and never reads an erase outcome. Wear replays
 * that log through the drive's erase schemes and then marks each NAND
 * block's programmed pages as the block table has them. Erase physics
 * never reads a block's programmed pages, so the split leaves every
 * block, scheme and RNG exactly as erasing inline would.
 *
 * So the placement of a drive reads fewer configuration fields than the
 * drive does: not its erase scheme, PEC, chip type, arbitration, timing
 * or SLO. A PlacementImage is what placement leaves, and the
 * process-wide PlacementCache keeps recent images, keyed by the fields
 * placement reads. Drives that differ only in the other fields (the five
 * schemes of a figure at each PEC) place once and each pays only its
 * wear. An image holds the l2p table, not p2l or the valid counts, which
 * are rebuilt from it.
 */

#ifndef AERO_SSD_PLACEMENT_HH
#define AERO_SSD_PLACEMENT_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "ssd/block_manager.hh"

namespace aero
{

/** A (chip, plane) position of a round-robin allocation scan. */
struct PlaneCursor
{
    int chip = 0;
    int plane = 0;

    bool operator==(const PlaneCursor &) const = default;
};

/** One block warmup GC erased, in erase-log order. */
struct ErasedBlock
{
    std::uint32_t chip;
    BlockId block;

    bool operator==(const ErasedBlock &) const = default;
};

/** Every SsdConfig field placement reads, and no other. */
struct PlacementKey
{
    explicit PlacementKey(const SsdConfig &cfg);

    int channels;
    int chipsPerChannel;
    int planes;
    int blocksPerPlane;
    int pagesPerBlock;
    double opRatio;
    int gcLowWatermark;
    int gcHighWatermark;
    GcPolicy gcPolicy;
    WearLevel wearLevel;
    double prefillFraction;
    double warmupOverwriteFraction;
    std::uint64_t seed;

    bool operator==(const PlacementKey &) const = default;
};

/** Bytes of a placement image: l2p, block table and erase log. */
std::size_t placementBytes(std::size_t logicalPages, std::size_t blocks,
                           std::size_t erases);

/** The placement state conditioning leaves (see the file comment). */
struct PlacementImage
{
    std::vector<std::uint32_t> l2p;  //!< PageMapping's LPN -> PPN table
    BlockManager blocks;
    PlaneCursor writePointer;
    std::vector<ErasedBlock> eraseLog;  //!< warmup erases, in order

    std::size_t
    bytes() const
    {
        return placementBytes(l2p.size(), blocks.blockCount(),
                              eraseLog.size());
    }

    bool operator==(const PlacementImage &) const = default;
};

/**
 * A mutex-guarded LRU of placement images under a byte budget. An image
 * larger than the whole budget (a paper-drive image: about 230 MB of
 * l2p) is never retained, so callers check retains() before copying one
 * out of a drive.
 */
class PlacementCache
{
  public:
    /** The process cache's budget: about seventy bench-drive images. */
    static constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::size_t bytes = 0;   //!< held by the retained images
        std::size_t images = 0;  //!< retained
    };

    explicit PlacementCache(std::size_t budgetBytes = kBudgetBytes)
        : budget(budgetBytes)
    {
    }

    /** The cache Ssd(cfg) conditions through. */
    static PlacementCache &process();

    /** The image placed under `key`, now the most recently used, or
     *  null; counts a hit or a miss. */
    std::shared_ptr<const PlacementImage> find(const PlacementKey &key);

    /** Would an image of `bytes` be retained? */
    bool retains(std::size_t bytes) const { return bytes <= budget; }

    /**
     * Retain `image` under `key` as the most recently used, evicting the
     * least recently used images until it fits. Does nothing when the
     * image alone is over budget or `key` already holds an image (two
     * threads placed the same key at once; both images are equal).
     */
    void insert(const PlacementKey &key,
                std::shared_ptr<const PlacementImage> image);

    Stats stats() const;

  private:
    struct Entry
    {
        PlacementKey key;
        std::shared_ptr<const PlacementImage> image;
        std::size_t bytes;
    };

    const std::size_t budget;
    mutable std::mutex mu;
    std::list<Entry> lru;  //!< most recently used first
    Stats counts;
};

} // namespace aero

#endif // AERO_SSD_PLACEMENT_HH
