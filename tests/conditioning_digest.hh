/**
 * @file
 * A 64-bit FNV-1a digest of a conditioned drive's full persistent state,
 * shared by the conditioning tests. It covers every l2p and p2l entry,
 * every block's valid count, BlockManager state and erase count, fill
 * stamp, NAND PEC, wear, leftover and programmed pages, each plane's
 * free-block count and the warmup erase count. Doubles are hashed by
 * their bit patterns, so the digest only matches a bit-identical drive.
 */

#ifndef AERO_TESTS_CONDITIONING_DIGEST_HH
#define AERO_TESTS_CONDITIONING_DIGEST_HH

#include <bit>
#include <cstdint>

#include "ssd/ssd.hh"

namespace aero
{
namespace test
{

class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffULL;
            h *= 0x100000001b3ULL;
        }
    }

    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** Digest of a conditioned drive's state. */
inline std::uint64_t
conditionedStateDigest(Ftl &ftl)
{
    const SsdConfig &cfg = ftl.config();
    const PageMapping &map = ftl.pageMapping();
    const BlockManager &blocks = ftl.blockManager();
    Fnv1a h;
    for (Lpn lpn = 0; lpn < map.logicalPages(); ++lpn)
        h.add(map.lookup(lpn));
    for (Ppn ppn = 0; ppn < cfg.physicalPages(); ++ppn)
        h.add(map.reverseLookup(ppn));
    for (int c = 0; c < cfg.totalChips(); ++c) {
        const NandChip &chip = ftl.chipAt(c);
        for (int b = 0; b < cfg.blocksPerChip(); ++b) {
            const auto id = static_cast<BlockId>(b);
            h.add(static_cast<std::uint64_t>(map.validPages(c, id)));
            h.add(static_cast<std::uint64_t>(blocks.state(c, id)));
            h.add(blocks.eraseCount(c, id));
            h.add(blocks.fillStamp(c, id));
            const Block &blk = chip.block(id);
            h.add(blk.pec());
            h.add(blk.wear());
            h.add(blk.leftoverSlots());
            h.add(static_cast<std::uint64_t>(blk.programmedPages()));
        }
        for (int p = 0; p < cfg.geometry.planes; ++p)
            h.add(static_cast<std::uint64_t>(blocks.freeBlocks(c, p)));
    }
    h.add(ftl.warmupErases());
    return h.value();
}

/** Digest of the drive state `Ssd(cfg)` leaves behind. */
inline std::uint64_t
conditionedStateDigest(Ssd &ssd)
{
    return conditionedStateDigest(ssd.ftl());
}

/**
 * Digest of a standalone Ftl conditioned through prefill() and
 * warmup(), the steps Ssd(cfg) takes through its placement cache.
 */
inline std::uint64_t
standaloneStateDigest(const SsdConfig &cfg)
{
    EventQueue eq;
    Ftl ftl(cfg, eq);
    ftl.prefill();
    ftl.warmup(static_cast<std::uint64_t>(
        static_cast<double>(cfg.logicalPages()) *
        cfg.warmupOverwriteFraction));
    return conditionedStateDigest(ftl);
}

} // namespace test
} // namespace aero

#endif // AERO_TESTS_CONDITIONING_DIGEST_HH
