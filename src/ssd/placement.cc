#include "ssd/placement.hh"

#include <algorithm>
#include <utility>

namespace aero
{

PlacementKey::PlacementKey(const SsdConfig &cfg)
    : channels(cfg.channels), chipsPerChannel(cfg.chipsPerChannel),
      planes(cfg.geometry.planes),
      blocksPerPlane(cfg.geometry.blocksPerPlane),
      pagesPerBlock(cfg.geometry.pagesPerBlock), opRatio(cfg.opRatio),
      gcLowWatermark(cfg.gcLowWatermark),
      gcHighWatermark(cfg.gcHighWatermark), gcPolicy(cfg.gcPolicy),
      wearLevel(cfg.wearLevel), prefillFraction(cfg.prefillFraction),
      warmupOverwriteFraction(cfg.warmupOverwriteFraction), seed(cfg.seed)
{
}

std::size_t
placementBytes(std::size_t logicalPages, std::size_t blocks,
               std::size_t erases)
{
    // Per block: its state, erase count and fill stamp, and its slot in
    // the plane's free list.
    constexpr std::size_t kPerBlock = sizeof(BlockState) +
                                      2 * sizeof(std::uint64_t) +
                                      sizeof(BlockId);
    return sizeof(PlacementImage) + logicalPages * sizeof(std::uint32_t) +
           blocks * kPerBlock + erases * sizeof(ErasedBlock);
}

PlacementCache &
PlacementCache::process()
{
    static PlacementCache cache;
    return cache;
}

std::shared_ptr<const PlacementImage>
PlacementCache::find(const PlacementKey &key)
{
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = std::find_if(lru.begin(), lru.end(),
                                 [&](const Entry &e) { return e.key == key; });
    if (it == lru.end()) {
        counts.misses += 1;
        return nullptr;
    }
    counts.hits += 1;
    lru.splice(lru.begin(), lru, it);
    return it->image;
}

void
PlacementCache::insert(const PlacementKey &key,
                       std::shared_ptr<const PlacementImage> image)
{
    const std::size_t bytes = image->bytes();
    if (!retains(bytes))
        return;
    const std::lock_guard<std::mutex> lock(mu);
    if (std::any_of(lru.begin(), lru.end(),
                    [&](const Entry &e) { return e.key == key; }))
        return;
    while (counts.bytes + bytes > budget) {
        counts.bytes -= lru.back().bytes;
        lru.pop_back();
    }
    lru.push_front(Entry{key, std::move(image), bytes});
    counts.bytes += bytes;
}

PlacementCache::Stats
PlacementCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mu);
    Stats s = counts;
    s.images = lru.size();
    return s;
}

} // namespace aero
