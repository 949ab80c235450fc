/**
 * @file
 * Victim-selection battery (ssd/gc.hh + ssd/block_manager.hh): victim
 * key units, the fifo-log reuse-cycle regression, a randomized
 * differential check of BlockManager's plane scans (GC and static
 * wear-leveling victims) against test-local oracles that recount valid
 * pages from the P2L table and keep their own fill stamps and erase
 * counts (10k sequences per policy, plus one run on the bench drive),
 * and a 50k-op mixed host/GC/WL fuzz asserting mapping bijectivity,
 * free-page accounting and wear-count conservation after every
 * reclamation cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "ssd/block_manager.hh"
#include "ssd/config.hh"
#include "ssd/gc.hh"
#include "ssd/mapping.hh"
#include "ssd/wear_level.hh"

namespace aero
{
namespace
{

GcLineInfo
line(BlockId block, int valid, int ppb, std::uint64_t open_seq,
     std::uint64_t ec)
{
    GcLineInfo info;
    info.block = block;
    info.validPages = valid;
    info.pagesPerBlock = ppb;
    info.openSeq = open_seq;
    info.eraseCount = ec;
    return info;
}

double
score(GcPolicy policy, const GcLineInfo &info)
{
    return gcKey(policy, info).score;
}

TEST(GcPolicyScore, GreedyOrdersByValidPagesAndBreaksTiesByBlockId)
{
    const GcPolicy greedy = GcPolicy::Greedy;
    EXPECT_LT(score(greedy, line(0, 2, 32, 9, 0)),
              score(greedy, line(1, 5, 32, 1, 0)));
    // Equal valid counts: the lower block id must win the tie-break.
    EXPECT_EQ(score(greedy, line(3, 4, 32, 1, 0)),
              score(greedy, line(7, 4, 32, 2, 0)));
    EXPECT_LT(gcKey(greedy, line(3, 4, 32, 9, 0)).tie,
              gcKey(greedy, line(7, 4, 32, 1, 0)).tie);
}

TEST(GcPolicyScore, CostBenefitPrefersEmptierAndYoungerBlocks)
{
    const GcPolicy cb = GcPolicy::CostBenefit;
    // Fewer valid pages -> cheaper migration and more reclaimed space.
    EXPECT_LT(score(cb, line(0, 2, 32, 1, 0)),
              score(cb, line(1, 20, 32, 1, 0)));
    // Same occupancy but more wear -> worse victim.
    EXPECT_LT(score(cb, line(0, 8, 32, 1, 1)),
              score(cb, line(1, 8, 32, 1, 5)));
    // An empty block scores zero regardless of wear.
    EXPECT_EQ(score(cb, line(0, 0, 32, 1, 100)), 0.0);
    // Equal scores: the oldest fill wins the tie-break.
    EXPECT_LT(gcKey(cb, line(9, 8, 32, 1, 0)).tie,
              gcKey(cb, line(0, 8, 32, 2, 0)).tie);
}

TEST(GcPolicyScore, FifoLogOrdersByFillGeneration)
{
    const GcPolicy fifo = GcPolicy::FifoLog;
    EXPECT_LT(score(fifo, line(9, 30, 32, 1, 0)),
              score(fifo, line(0, 0, 32, 2, 0)));
}

/** @p cfg (tiny by default) under GC policy @p policy. */
SsdConfig
drive(GcPolicy policy, SsdConfig cfg = SsdConfig::tiny())
{
    cfg.gcPolicy = policy;
    return cfg;
}

/**
 * A drive's worth of BlockManager + PageMapping under the config's GC
 * policy and wear leveling (tiny geometry unless given), with functional
 * write/trim/GC helpers mirroring the FTL's prefill/warmup paths and
 * functionalGc(). The fixture also keeps its own record of every
 * block's fill order and erase count for the victim oracles.
 */
struct BlockFixture
{
    SsdConfig cfg;
    BlockManager blocks;
    PageMapping mapping;
    Lpn nextLpn = 0;
    std::vector<std::uint64_t> fillStamps;  //!< per (chip, block), 0 = none
    std::vector<std::uint64_t> erases;      //!< per (chip, block)
    std::uint64_t fills = 0;

    explicit BlockFixture(const SsdConfig &config = SsdConfig::tiny())
        : cfg(config), blocks(cfg),
          mapping(cfg.logicalPages(), cfg.totalChips(), cfg.blocksPerChip(),
                  cfg.geometry.pagesPerBlock),
          fillStamps(static_cast<std::size_t>(cfg.totalChips()) *
                         cfg.blocksPerChip(),
                     0),
          erases(fillStamps.size(), 0)
    {
    }

    BlockId
    victim(int chip, int plane) const
    {
        return blocks.pickVictim(chip, plane, mapping);
    }

    int pagesPerBlock() const { return cfg.geometry.pagesPerBlock; }

    std::size_t
    slot(int chip, BlockId block) const
    {
        return static_cast<std::size_t>(chip) * cfg.blocksPerChip() + block;
    }

    /** BlockManager::allocate, stamping each block as its fill begins. */
    bool
    allocate(int chip, int plane, BlockId &blk, int &page,
             bool for_gc = false)
    {
        if (!blocks.allocate(chip, plane, blk, page, for_gc))
            return false;
        if (page == 0)
            fillStamps[slot(chip, blk)] = ++fills;
        return true;
    }

    /** @return false when the plane is out of user space. */
    bool
    writePage(Lpn lpn, int chip, int plane)
    {
        BlockId blk = kInvalidBlock;
        int page = 0;
        if (!allocate(chip, plane, blk, page))
            return false;
        mapping.update(lpn, mapping.encode(chip, blk, page));
        return true;
    }

    /** Write pagesPerBlock fresh LPNs; @return the block they filled. */
    BlockId
    fillBlock(int chip, int plane)
    {
        BlockId blk = kInvalidBlock;
        for (int i = 0; i < pagesPerBlock(); ++i) {
            int page = 0;
            AERO_CHECK(allocate(chip, plane, blk, page),
                       "fixture plane ran out of blocks");
            mapping.update(nextLpn++, mapping.encode(chip, blk, page));
        }
        return blk;
    }

    void trim(Lpn lpn) { mapping.invalidateLpn(lpn); }

    /** Functional GC: migrate every valid page off `victim`, erase it. */
    void
    collect(int chip, BlockId victim)
    {
        const int plane = blocks.planeOf(victim);
        for (int page = 0; page < pagesPerBlock(); ++page) {
            const Lpn lpn =
                mapping.reverseLookup(mapping.encode(chip, victim, page));
            if (lpn == kInvalidLpn)
                continue;
            BlockId dst = kInvalidBlock;
            int dst_page = 0;
            AERO_CHECK(allocate(chip, plane, dst, dst_page, true),
                       "GC found no relocation target");
            mapping.update(lpn, mapping.encode(chip, dst, dst_page));
        }
        mapping.onBlockErased(chip, victim);
        blocks.onBlockErased(chip, victim);
        erases[slot(chip, victim)] += 1;
    }
};

/** Valid pages of a block, recounted from the P2L table. */
int
recountValid(const BlockFixture &fx, int chip, BlockId block)
{
    int valid = 0;
    for (int page = 0; page < fx.pagesPerBlock(); ++page) {
        if (fx.mapping.reverseLookup(fx.mapping.encode(chip, block, page)) !=
            kInvalidLpn)
            valid += 1;
    }
    return valid;
}

/**
 * Victim oracle independent of BlockManager's scan: the candidates are the
 * plane's blocks in state Full, scored by the policy over inputs the
 * fixture derives itself (P2L recount, its own fill stamps and erase
 * counts), ordered by (score, tie, block).
 */
BlockId
oracleVictim(const BlockFixture &fx, int chip, int plane)
{
    const int per_plane = fx.cfg.geometry.blocksPerPlane;
    BlockId best = kInvalidBlock;
    std::tuple<double, std::uint64_t, BlockId> best_key;
    for (int i = 0; i < per_plane; ++i) {
        const auto b = static_cast<BlockId>(plane * per_plane + i);
        if (fx.blocks.state(chip, b) != BlockState::Full)
            continue;
        GcLineInfo info;
        info.block = b;
        info.validPages = recountValid(fx, chip, b);
        info.pagesPerBlock = fx.pagesPerBlock();
        info.openSeq = fx.fillStamps[fx.slot(chip, b)];
        info.eraseCount = fx.erases[fx.slot(chip, b)];
        const GcKey gc = gcKey(fx.cfg.gcPolicy, info);
        const auto key = std::make_tuple(gc.score, gc.tie, b);
        if (best == kInvalidBlock || key < best_key) {
            best = b;
            best_key = key;
        }
    }
    return best;
}

/**
 * Static wear-leveling oracle independent of BlockManager's scan: the
 * least-erased Full block (lowest id on ties), taken only when some
 * block of the plane, Full or not, has at least @p erase_delta more
 * erases. Erase counts are the fixture's own.
 */
BlockId
oracleColdVictim(const BlockFixture &fx, int chip, int plane,
                 int erase_delta)
{
    const int per_plane = fx.cfg.geometry.blocksPerPlane;
    std::vector<std::pair<std::uint64_t, BlockId>> full;
    std::vector<std::uint64_t> all;
    for (int i = 0; i < per_plane; ++i) {
        const auto b = static_cast<BlockId>(plane * per_plane + i);
        const std::uint64_t ec = fx.erases[fx.slot(chip, b)];
        all.push_back(ec);
        if (fx.blocks.state(chip, b) == BlockState::Full)
            full.emplace_back(ec, b);
    }
    if (full.empty())
        return kInvalidBlock;
    const auto coldest = *std::min_element(full.begin(), full.end());
    const std::uint64_t hottest = *std::max_element(all.begin(), all.end());
    if (hottest - coldest.first < static_cast<std::uint64_t>(erase_delta))
        return kInvalidBlock;
    return coldest.second;
}

TEST(BlockManager, GreedyPicksFewestValidPages)
{
    BlockFixture fx;
    const std::vector<int> keep = {5, 2, 9};
    std::vector<BlockId> full;
    for (const int k : keep) {
        full.push_back(fx.fillBlock(0, 0));
        for (int i = 0; i < fx.pagesPerBlock() - k; ++i)
            fx.trim(fx.nextLpn - 1 - static_cast<Lpn>(i));
    }
    EXPECT_EQ(fx.victim(0, 0), full[1]);
    EXPECT_EQ(oracleVictim(fx, 0, 0), full[1]);
}

TEST(BlockManager, GreedyBreaksTiesTowardLowestBlockId)
{
    BlockFixture fx;
    std::vector<BlockId> full;
    for (int b = 0; b < 3; ++b) {
        full.push_back(fx.fillBlock(0, 0));
        for (int i = 0; i < fx.pagesPerBlock() - 4; ++i)
            fx.trim(fx.nextLpn - 1 - static_cast<Lpn>(i));
    }
    EXPECT_EQ(fx.victim(0, 0),
              *std::min_element(full.begin(), full.end()));
}

TEST(BlockManager, NoFullBlocksMeansNoVictim)
{
    BlockFixture fx;
    EXPECT_EQ(fx.victim(0, 0), kInvalidBlock);
    // An Open (not yet Full) block is not a candidate either.
    BlockId blk = kInvalidBlock;
    int page = 0;
    ASSERT_TRUE(fx.blocks.allocate(0, 0, blk, page));
    EXPECT_EQ(fx.victim(0, 0), kInvalidBlock);
}

TEST(BlockManager, ErasedVictimIsNoLongerACandidate)
{
    BlockFixture fx;
    const BlockId a = fx.fillBlock(0, 0);
    const BlockId b = fx.fillBlock(0, 0);
    // Empty block a entirely so collecting it migrates nothing.
    for (Lpn lpn = 0; lpn < static_cast<Lpn>(fx.pagesPerBlock()); ++lpn)
        fx.trim(lpn);
    ASSERT_EQ(fx.victim(0, 0), a);
    fx.collect(0, a);
    EXPECT_EQ(fx.victim(0, 0), b);
    EXPECT_EQ(fx.blocks.state(0, a), BlockState::Free);
    EXPECT_EQ(fx.blocks.state(0, b), BlockState::Full);
}

/**
 * Reuse-cycle regression: the old fifo policy ordered victims by numeric
 * block id, which replays an erased-and-refilled low-id block ahead of
 * data written long before it. fifo-log must pick the oldest *fill*.
 */
TEST(BlockManager, FifoLogSurvivesBlockReuse)
{
    BlockFixture fx(drive(GcPolicy::FifoLog));
    const BlockId a = fx.fillBlock(0, 0);
    const BlockId b = fx.fillBlock(0, 0);
    ASSERT_LT(a, b);
    // Invalidate and erase a, then refill it: a's fill is now the newest.
    for (Lpn lpn = 0; lpn < static_cast<Lpn>(fx.pagesPerBlock()); ++lpn)
        fx.trim(lpn);
    fx.collect(0, a);
    const BlockId a_again = fx.fillBlock(0, 0);
    ASSERT_EQ(a_again, a);  // LIFO free list hands the same block back
    const BlockId c = fx.fillBlock(0, 0);
    ASSERT_NE(c, a);
    // Block-id order would pick a; log order must pick b.
    EXPECT_EQ(fx.victim(0, 0), b);
    EXPECT_LT(fx.blocks.fillStamp(0, b), fx.blocks.fillStamp(0, a));
}

TEST(BlockManager, TracksValidCountsAgainstTheMapping)
{
    BlockFixture fx;
    for (int b = 0; b < 4; ++b)
        fx.fillBlock(0, 0);
    std::mt19937_64 rng(17);
    for (int i = 0; i < 64; ++i)
        fx.trim(rng() % fx.nextLpn);
    for (int b = 0; b < fx.cfg.geometry.blocksPerPlane; ++b) {
        const auto blk = static_cast<BlockId>(b);
        EXPECT_EQ(fx.mapping.validPages(0, blk), recountValid(fx, 0, blk));
    }
}

/**
 * Differential engine: one randomized churn step (overwrite / trim /
 * GC), then require BlockManager's GC and static wear-leveling victims
 * to agree with the oracles.
 * Each step is one randomized invalidation sequence against a drive
 * state no other step has seen. The step's own plane is compared after
 * every step and every plane after every `all_planes_every` steps (a
 * trim may land on any plane).
 */
void
differentialChurn(GcPolicy policy, std::uint64_t seed, int steps,
                  const SsdConfig &cfg = SsdConfig::tiny(),
                  int all_planes_every = 1)
{
    BlockFixture fx(drive(policy, cfg));
    std::mt19937_64 rng(seed);
    // Start from a mostly-written drive so Full blocks exist early.
    const Lpn span = fx.cfg.logicalPages();
    for (Lpn lpn = 0; lpn < span / 2; ++lpn) {
        const int chip = static_cast<int>(rng() % fx.cfg.totalChips());
        const int plane = static_cast<int>(rng() % fx.cfg.geometry.planes);
        ASSERT_TRUE(fx.writePage(lpn, chip, plane));
    }
    for (int step = 0; step < steps; ++step) {
        const int chip = static_cast<int>(rng() % fx.cfg.totalChips());
        const int plane = static_cast<int>(rng() % fx.cfg.geometry.planes);
        // Reclaim ahead of the writes so allocation never wedges.
        if (fx.blocks.freeBlocks(chip, plane) <=
            fx.cfg.gcLowWatermark) {
            const BlockId victim = fx.victim(chip, plane);
            if (victim != kInvalidBlock)
                fx.collect(chip, victim);
        }
        const std::uint64_t dice = rng() % 10;
        if (dice < 7) {
            ASSERT_TRUE(fx.writePage(rng() % span, chip, plane));
        } else if (dice < 9) {
            fx.trim(rng() % span);
        } else {
            const BlockId victim = fx.victim(chip, plane);
            if (victim != kInvalidBlock)
                fx.collect(chip, victim);
        }
        const bool all_planes = (step + 1) % all_planes_every == 0;
        for (int c = 0; c < fx.cfg.totalChips(); ++c) {
            for (int p = 0; p < fx.cfg.geometry.planes; ++p) {
                if (!all_planes && (c != chip || p != plane))
                    continue;
                ASSERT_EQ(fx.victim(c, p), oracleVictim(fx, c, p))
                    << enumName(policy) << " diverged at step " << step
                    << " chip " << c << " plane " << p;
                ASSERT_EQ(fx.blocks.pickColdVictim(c, p, 1),
                          oracleColdVictim(fx, c, p, 1))
                    << "cold victim diverged at step " << step << " chip "
                    << c << " plane " << p;
            }
        }
    }
}

TEST(BlockManagerDifferential, GreedyMatchesBruteForceOver10kSequences)
{
    differentialChurn(GcPolicy::Greedy, 0xAE01, 10000);
}

TEST(BlockManagerDifferential, CostBenefitMatchesBruteForceOver10kSequences)
{
    differentialChurn(GcPolicy::CostBenefit, 0xAE02, 10000);
}

TEST(BlockManagerDifferential, FifoLogMatchesBruteForceOver10kSequences)
{
    differentialChurn(GcPolicy::FifoLog, 0xAE03, 10000);
}

/**
 * Bench-drive geometry (64 planes of 32 blocks x 128 pages). Dynamic
 * wear leveling opens the least-erased free block, so every block of a
 * plane takes turns as a candidate; LIFO reuse leaves the top few ids
 * of each plane free for the whole run.
 */
TEST(BlockManagerDifferential, CostBenefitMatchesBruteForceOnTheBenchDrive)
{
    SsdConfig cfg = SsdConfig::bench();
    cfg.wearLevel = WearLevel::Dynamic;
    differentialChurn(GcPolicy::CostBenefit, 0xAE04, 20000, cfg, 100);
}

/** Ring buffer of the ops leading up to a fuzz failure. */
struct OpLog
{
    std::deque<std::string> ops;
    std::uint64_t dropped = 0;

    void
    push(std::string op)
    {
        if (ops.size() >= 48) {
            ops.pop_front();
            dropped += 1;
        }
        ops.push_back(std::move(op));
    }

    std::string
    dump() const
    {
        std::ostringstream os;
        os << "last " << ops.size() << " ops (" << dropped
           << " earlier ops elided):\n";
        for (const auto &op : ops)
            os << "  " << op << "\n";
        return os.str();
    }
};

/**
 * The fuzz's whole-drive invariant check:
 *  - mapping bijectivity: L2P and P2L are exact inverses;
 *  - valid-page accounting: the mapping's per-block counts, a recount
 *    of the P2L table and the global mapped count all agree;
 *  - free-page accounting: the free lists match the block states;
 *  - wear conservation: per-block erase counts are monotone and sum to
 *    the drive-wide total.
 */
void
checkFuzzInvariants(BlockFixture &fx,
                    std::vector<std::uint64_t> &last_erase_counts,
                    const OpLog &log)
{
    const int chips = fx.cfg.totalChips();
    const int planes = fx.cfg.geometry.planes;
    const int blocks_per_chip = fx.cfg.blocksPerChip();
    // Bijectivity, forward: every mapped LPN owns the PPA it points at.
    std::uint64_t mapped = 0;
    for (Lpn lpn = 0; lpn < fx.cfg.logicalPages(); ++lpn) {
        const Ppn ppn = fx.mapping.lookup(lpn);
        if (ppn == kInvalidPpn)
            continue;
        mapped += 1;
        ASSERT_EQ(fx.mapping.reverseLookup(ppn), lpn)
            << "L2P/P2L diverged at lpn " << lpn << "\n" << log.dump();
    }
    ASSERT_EQ(mapped, fx.mapping.mappedCount()) << log.dump();
    std::uint64_t total_valid = 0;
    std::uint64_t total_erases = 0;
    for (int c = 0; c < chips; ++c) {
        for (BlockId b = 0; b < static_cast<BlockId>(blocks_per_chip);
             ++b) {
            // Bijectivity, reverse: every owned PPA is pointed back at.
            int owned = 0;
            for (int pg = 0; pg < fx.pagesPerBlock(); ++pg) {
                const Ppn ppn = fx.mapping.encode(c, b, pg);
                const Lpn lpn = fx.mapping.reverseLookup(ppn);
                if (lpn == kInvalidLpn)
                    continue;
                owned += 1;
                ASSERT_EQ(fx.mapping.lookup(lpn), ppn)
                    << "P2L names an lpn mapped elsewhere\n" << log.dump();
            }
            const int valid = fx.mapping.validPages(c, b);
            total_valid += static_cast<std::uint64_t>(valid);
            ASSERT_EQ(owned, valid)
                << "mapping lost a valid-count delta on chip " << c
                << " block " << b << "\n" << log.dump();
            // A Free block must hold no valid data.
            if (fx.blocks.state(c, b) == BlockState::Free) {
                ASSERT_EQ(valid, 0) << log.dump();
            }
            const std::uint64_t ec = fx.blocks.eraseCount(c, b);
            auto &last = last_erase_counts[static_cast<std::size_t>(c) *
                                               blocks_per_chip +
                                           b];
            ASSERT_GE(ec, last)
                << "erase count went backwards\n" << log.dump();
            last = ec;
            total_erases += ec;
        }
        // Free-list sizes match the per-block states.
        for (int p = 0; p < planes; ++p) {
            int free_state = 0;
            for (int b = 0; b < fx.cfg.geometry.blocksPerPlane; ++b) {
                const auto id = static_cast<BlockId>(
                    p * fx.cfg.geometry.blocksPerPlane + b);
                if (fx.blocks.state(c, id) == BlockState::Free)
                    free_state += 1;
            }
            ASSERT_EQ(fx.blocks.freeBlocks(c, p), free_state)
                << "free list disagrees with block states\n" << log.dump();
        }
    }
    ASSERT_EQ(total_valid, fx.mapping.mappedCount()) << log.dump();
    ASSERT_EQ(total_erases, fx.blocks.totalErases()) << log.dump();
}

/**
 * 50k randomized ops of mixed host, GC and wear-leveling traffic. Dynamic
 * wear leveling is on for real (allocation choice) and static-style cold
 * migrations are injected; the invariants above are checked after every
 * reclamation cycle.
 */
TEST(GcFuzz, MixedTrafficPreservesInvariantsOver50kOps)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.wearLevel = WearLevel::Dynamic;
    BlockFixture fx(cfg);
    std::mt19937_64 rng(0xA3205024);
    OpLog log;
    std::vector<std::uint64_t> last_erase_counts(
        static_cast<std::size_t>(fx.cfg.totalChips()) *
            fx.cfg.blocksPerChip(),
        0);
    const Lpn span = fx.cfg.logicalPages();
    auto note = [&](const char *what, int chip, int plane,
                    std::uint64_t detail) {
        std::ostringstream os;
        os << what << " chip=" << chip << " plane=" << plane << " "
           << detail;
        log.push(os.str());
    };
    for (std::uint64_t op = 0; op < 50000; ++op) {
        const int chip = static_cast<int>(rng() % fx.cfg.totalChips());
        const int plane = static_cast<int>(rng() % fx.cfg.geometry.planes);
        if (fx.blocks.freeBlocks(chip, plane) <= fx.cfg.gcLowWatermark) {
            const BlockId victim = fx.victim(chip, plane);
            if (victim != kInvalidBlock) {
                note("gc", chip, plane, victim);
                fx.collect(chip, victim);
                ASSERT_NO_FATAL_FAILURE(
                    checkFuzzInvariants(fx, last_erase_counts, log));
            }
        }
        const std::uint64_t dice = rng() % 100;
        if (dice < 80) {
            const Lpn lpn = rng() % span;
            note("write", chip, plane, lpn);
            ASSERT_TRUE(fx.writePage(lpn, chip, plane)) << log.dump();
        } else if (dice < 90) {
            const Lpn lpn = rng() % span;
            note("trim", chip, plane, lpn);
            fx.trim(lpn);
        } else {
            // Wear-leveling traffic: relocate the cold block the static
            // policy would pick at an aggressive spread threshold.
            const BlockId cold = fx.blocks.pickColdVictim(chip, plane, 1);
            ASSERT_EQ(cold, oracleColdVictim(fx, chip, plane, 1))
                << "cold victim diverged on chip " << chip << " plane "
                << plane << "\n" << log.dump();
            if (cold != kInvalidBlock &&
                fx.blocks.freeBlocks(chip, plane) >
                    fx.cfg.gcLowWatermark) {
                note("wear-level", chip, plane, cold);
                fx.collect(chip, cold);
                ASSERT_NO_FATAL_FAILURE(
                    checkFuzzInvariants(fx, last_erase_counts, log));
            }
        }
    }
    ASSERT_NO_FATAL_FAILURE(
        checkFuzzInvariants(fx, last_erase_counts, log));
    // The run must have actually exercised reclamation.
    EXPECT_GT(fx.blocks.totalErases(), 0u);
}

} // namespace
} // namespace aero
