/**
 * @file
 * Wear-leveling policy battery: the `none` policy's bit-exact LIFO
 * reuse, `dynamic`'s
 * least-erased free-block choice, `static`'s cold-victim threshold, and
 * an end-to-end check that leveling actually narrows the erase-count
 * spread on a churned drive.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ssd/block_manager.hh"
#include "ssd/ssd.hh"
#include "ssd/wear_level.hh"
#include "workload/synthetic.hh"

namespace aero
{
namespace
{

/** @p wear on the tiny drive. */
SsdConfig
tinyWith(WearLevel wear)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.wearLevel = wear;
    return cfg;
}

// A tiny drive whose per-(chip, plane) pools the tests can steer.
struct WearFixture
{
    explicit WearFixture(WearLevel wear = WearLevel::None)
        : cfg(tinyWith(wear)), blocks(cfg)
    {
    }

    SsdConfig cfg;
    BlockManager blocks;

    // Fill every page of the open block of (chip, plane) so it goes
    // Full, then erase it, leaving its erase count bumped.
    BlockId
    churnOneBlock(int chip, int plane)
    {
        BlockId block = kInvalidBlock;
        int page = 0;
        for (int i = 0; i < cfg.geometry.pagesPerBlock; ++i)
            EXPECT_TRUE(blocks.allocate(chip, plane, block, page));
        blocks.onBlockErased(chip, block);
        return block;
    }
};

TEST(WearLevelNone, ReusesTheLastFreedBlockFirst)
{
    WearFixture fx(WearLevel::None);
    // LIFO: the block just erased must be the next one opened.
    const BlockId churned = fx.churnOneBlock(0, 0);
    BlockId block = kInvalidBlock;
    int page = 0;
    ASSERT_TRUE(fx.blocks.allocate(0, 0, block, page));
    EXPECT_EQ(block, churned);
    EXPECT_EQ(fx.blocks.eraseCount(0, churned), 1u);
}

TEST(WearLevelDynamic, OpensTheLeastErasedFreeBlock)
{
    WearFixture fx(WearLevel::Dynamic);
    // Churn one block so it carries the only nonzero erase count; the
    // dynamic policy must *not* reuse it while colder blocks remain.
    const BlockId churned = fx.churnOneBlock(0, 0);
    BlockId block = kInvalidBlock;
    int page = 0;
    ASSERT_TRUE(fx.blocks.allocate(0, 0, block, page));
    EXPECT_NE(block, churned);
    EXPECT_EQ(fx.blocks.eraseCount(0, block), 0u);
}

TEST(WearLevelDynamic, BreaksEraseCountTiesByLowestBlockId)
{
    WearFixture fx(WearLevel::Dynamic);
    // Fill every block of plane 0 (the GC write point takes the block
    // user writes keep in reserve), then free 7, 3 and 11 in that order:
    // equal erase counts, and LIFO reuse would open 11.
    const int per_plane = fx.cfg.geometry.blocksPerPlane;
    BlockId block = kInvalidBlock;
    int page = 0;
    for (int i = 0; i < per_plane * fx.cfg.geometry.pagesPerBlock; ++i)
        ASSERT_TRUE(fx.blocks.allocate(0, 0, block, page, /*for_gc=*/true));
    ASSERT_EQ(fx.blocks.freeBlocks(0, 0), 0);
    for (const BlockId b : {7u, 3u, 11u})
        fx.blocks.onBlockErased(0, b);
    // The policy must pick deterministically: the lowest block id.
    ASSERT_TRUE(fx.blocks.allocate(0, 0, block, page));
    EXPECT_EQ(block, 3u);
}

TEST(WearLevelStatic, ColdVictimRequiresTheFullSpread)
{
    WearFixture fx;
    // No Full block anywhere: nothing to migrate.
    EXPECT_EQ(fx.blocks.pickColdVictim(0, 0, 1), kInvalidBlock);

    // Fill one block (leave it Full) and churn another plane-0 block
    // until the spread reaches the threshold.
    BlockId cold = kInvalidBlock;
    int page = 0;
    for (int i = 0; i < fx.cfg.geometry.pagesPerBlock; ++i)
        ASSERT_TRUE(fx.blocks.allocate(0, 0, cold, page));
    ASSERT_EQ(fx.blocks.state(0, cold), BlockState::Full);

    // Spread 1 < delta 2: below threshold, no victim yet.
    fx.churnOneBlock(0, 0);
    EXPECT_EQ(fx.blocks.pickColdVictim(0, 0, 2), kInvalidBlock);
    // Second churn reuses the same LIFO block: spread reaches 2.
    fx.churnOneBlock(0, 0);
    EXPECT_EQ(fx.blocks.pickColdVictim(0, 0, 2), cold);
    // A stricter threshold still declines.
    EXPECT_EQ(fx.blocks.pickColdVictim(0, 0, 3), kInvalidBlock);
}

// ---------------------------------------------------------------------------
// End to end: on a churned drive, both leveling policies must keep the
// per-plane erase spread no worse than no leveling at all — and dynamic
// must strictly narrow it (LIFO reuse concentrates erases by design).
// ---------------------------------------------------------------------------

// Peak (max - min) erase count over every (chip, plane).
std::uint64_t
maxEraseSpread(const BlockManager &blocks, const SsdConfig &cfg)
{
    const int per_plane = cfg.geometry.blocksPerPlane;
    std::uint64_t spread = 0;
    for (int c = 0; c < blocks.chips(); ++c) {
        for (int p = 0; p < blocks.planes(); ++p) {
            std::uint64_t lo = ~0ULL;
            std::uint64_t hi = 0;
            for (int i = 0; i < per_plane; ++i) {
                const std::uint64_t ec = blocks.eraseCount(
                    c, static_cast<BlockId>(p * per_plane + i));
                lo = std::min(lo, ec);
                hi = std::max(hi, ec);
            }
            spread = std::max(spread, hi - lo);
        }
    }
    return spread;
}

std::uint64_t
runSpread(WearLevel wear_level)
{
    SsdConfig cfg = tinyWith(wear_level);
    cfg.wlEraseDelta = 2;
    cfg.seed = 99;
    Ssd ssd(cfg);

    SyntheticConfig wc;
    wc.spec = workloadByName("ali.A");  // write-heavy churn
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = 6000;
    wc.seed = 31;
    ssd.run(generateTrace(wc));
    EXPECT_GT(ssd.metrics().erases, 0u);
    return maxEraseSpread(ssd.ftl().blockManager(), ssd.config());
}

TEST(WearLevelSystem, LevelingNarrowsTheEraseSpread)
{
    const std::uint64_t none = runSpread(WearLevel::None);
    const std::uint64_t dynamic = runSpread(WearLevel::Dynamic);
    const std::uint64_t static_wl = runSpread(WearLevel::Static);
    EXPECT_GT(none, 0u);
    EXPECT_LT(dynamic, none);
    EXPECT_LE(static_wl, none);
}

} // namespace
} // namespace aero
