#include "ssd/mapping.hh"

#include <algorithm>

#include "common/logging.hh"

namespace aero
{

PageMapping::PageMapping(std::uint64_t logical_pages, int chips_,
                         int blocks_per_chip, int pages_per_block)
    : chips(chips_),
      blocksPerChip(static_cast<std::uint32_t>(blocks_per_chip)),
      pagesPerBlock(static_cast<std::uint32_t>(pages_per_block)),
      perBlock(pagesPerBlock), perChip(blocksPerChip),
      l2p(logical_pages, kNoEntry),
      p2l(static_cast<std::size_t>(chips_) * blocks_per_chip *
              pages_per_block,
          kNoEntry),
      validCount(static_cast<std::size_t>(chips_) * blocks_per_chip, 0)
{
    AERO_CHECK(p2l.size() < kNoEntry,
               "physical space of ", p2l.size(),
               " pages does not fit 32-bit page numbers");
    AERO_CHECK(logical_pages <= p2l.size(),
               "logical space exceeds physical space");
}

Ppn
PageMapping::lookup(Lpn lpn) const
{
    AERO_CHECK(lpn < l2p.size(), "LPN out of range: ", lpn);
    const std::uint32_t ppn = l2p[lpn];
    return ppn == kNoEntry ? kInvalidPpn : ppn;
}

Lpn
PageMapping::reverseLookup(Ppn ppn) const
{
    AERO_CHECK(ppn < p2l.size(), "PPN out of range: ", ppn);
    const std::uint32_t lpn = p2l[ppn];
    return lpn == kNoEntry ? kInvalidLpn : lpn;
}

Ppn
PageMapping::update(Lpn lpn, Ppn ppn)
{
    AERO_CHECK(lpn < l2p.size(), "LPN out of range: ", lpn);
    AERO_CHECK(ppn < p2l.size(), "PPN out of range: ", ppn);
    AERO_CHECK(p2l[ppn] == kNoEntry,
               "programming a PPN that is still mapped: ", ppn);
    // Both indices are below kNoEntry (constructor), so they fit 32 bits.
    const auto dst = static_cast<std::uint32_t>(ppn);
    const std::uint32_t old = l2p[lpn];
    if (old != kNoEntry) {
        p2l[old] = kNoEntry;
        std::int32_t &valid = validCount[perBlock.div(old)];
        valid -= 1;
        AERO_CHECK(valid >= 0, "negative valid count");
    } else {
        ++mapped;
    }
    l2p[lpn] = dst;
    p2l[dst] = static_cast<std::uint32_t>(lpn);
    validCount[perBlock.div(dst)] += 1;
    return old == kNoEntry ? kInvalidPpn : old;
}

void
PageMapping::mapFreshRun(Lpn first, Lpn stride, int count, Ppn dst)
{
    AERO_CHECK(count > 0, "mapping a run of ", count, " pages");
    const Lpn last = first + static_cast<Lpn>(count - 1) * stride;
    AERO_CHECK(last < l2p.size(), "LPN out of range: ", last);
    AERO_CHECK(dst % pagesPerBlock + count <= pagesPerBlock,
               "run of ", count, " pages from PPN ", dst,
               " crosses a block");
    const auto d = static_cast<std::uint32_t>(dst);
    for (int k = 0; k < count; ++k) {
        const Lpn lpn = first + static_cast<Lpn>(k) * stride;
        AERO_CHECK(l2p[lpn] == kNoEntry, "prefill remapping LPN ", lpn);
        AERO_CHECK(p2l[d + k] == kNoEntry,
                   "programming a PPN that is still mapped: ", d + k);
        l2p[lpn] = d + k;
        p2l[d + k] = static_cast<std::uint32_t>(lpn);
    }
    validCount[perBlock.div(d)] += count;
    mapped += static_cast<std::uint64_t>(count);
}

void
PageMapping::restore(std::span<const std::uint32_t> table)
{
    AERO_CHECK(mapped == 0, "restoring l2p over a mapping in use");
    AERO_CHECK(table.size() == l2p.size(), "l2p table of ", table.size(),
               " entries for ", l2p.size(), " logical pages");
    std::copy(table.begin(), table.end(), l2p.begin());
    for (std::size_t lpn = 0; lpn < l2p.size(); ++lpn) {
        const std::uint32_t ppn = l2p[lpn];
        if (ppn == kNoEntry)
            continue;
        AERO_CHECK(ppn < p2l.size() && p2l[ppn] == kNoEntry,
                   "l2p maps PPN ", ppn, " twice or out of range");
        p2l[ppn] = static_cast<std::uint32_t>(lpn);
        validCount[perBlock.div(ppn)] += 1;
        ++mapped;
    }
}

int
PageMapping::livePages(int chip, BlockId block,
                       std::span<LivePage> out) const
{
    AERO_CHECK(out.size() >= pagesPerBlock, "live-page buffer of ",
               out.size(), " entries is smaller than a block");
    const auto base = static_cast<std::uint32_t>(encode(chip, block, 0));
    int n = 0;
    for (std::uint32_t p = base; p < base + pagesPerBlock; ++p) {
        if (p2l[p] != kNoEntry)
            out[n++] = LivePage{p2l[p], p};
    }
    AERO_CHECK(n == validPages(chip, block), "block ", block, " of chip ",
               chip, " maps ", n, " pages but counts ",
               validPages(chip, block), " valid");
    return n;
}

void
PageMapping::relocate(std::span<const LivePage> pages, Ppn dst)
{
    AERO_CHECK(!pages.empty(), "relocating an empty run");
    AERO_CHECK(dst % pagesPerBlock + pages.size() <= pagesPerBlock,
               "run of ", pages.size(), " pages from PPN ", dst,
               " crosses a block");
    const auto d = static_cast<std::uint32_t>(dst);
    std::int32_t &dst_valid = validCount[perBlock.div(d)];
    // Each page's l2p entry is a miss somewhere in the table; the run
    // knows its LPNs up front, so fetch a few pages ahead.
    constexpr std::size_t kAhead = 8;
    for (std::size_t k = 0; k < pages.size(); ++k) {
        if (k + kAhead < pages.size())
            __builtin_prefetch(&l2p[pages[k + kAhead].lpn], 1);
        const LivePage &pg = pages[k];
        const auto to = static_cast<std::uint32_t>(d + k);
        AERO_CHECK(pg.lpn < l2p.size(), "LPN out of range: ", pg.lpn);
        AERO_CHECK(p2l[to] == kNoEntry,
                   "programming a PPN that is still mapped: ", to);
        AERO_CHECK(l2p[pg.lpn] == pg.ppn, "relocating LPN ", pg.lpn,
                   " from PPN ", pg.ppn, " it no longer maps");
        p2l[pg.ppn] = kNoEntry;
        std::int32_t &valid = validCount[perBlock.div(pg.ppn)];
        valid -= 1;
        AERO_CHECK(valid >= 0, "negative valid count");
        l2p[pg.lpn] = to;
        p2l[to] = pg.lpn;
        dst_valid += 1;
    }
}

void
PageMapping::invalidateLpn(Lpn lpn)
{
    AERO_CHECK(lpn < l2p.size(), "LPN out of range: ", lpn);
    const std::uint32_t old = l2p[lpn];
    if (old == kNoEntry)
        return;
    p2l[old] = kNoEntry;
    std::int32_t &valid = validCount[perBlock.div(old)];
    valid -= 1;
    AERO_CHECK(valid >= 0, "negative valid count");
    l2p[lpn] = kNoEntry;
    --mapped;
}

int
PageMapping::validPages(int chip, BlockId block) const
{
    return validCount[blockIndex(chip, block)];
}

void
PageMapping::onBlockErased(int chip, BlockId block)
{
    AERO_CHECK(validPages(chip, block) == 0,
               "erasing a block with valid pages");
    // Clear any stale reverse entries (invalid pages).
    const Ppn base = encode(chip, block, 0);
    for (std::uint32_t p = 0; p < pagesPerBlock; ++p)
        p2l[base + p] = kNoEntry;
}

Ppn
PageMapping::encode(int chip, BlockId block, int page) const
{
    return (static_cast<Ppn>(chip) * blocksPerChip + block) *
               pagesPerBlock + page;
}

PpnParts
PageMapping::decode(Ppn ppn) const
{
    const auto p32 = static_cast<std::uint32_t>(ppn);
    const std::uint32_t blk = perBlock.div(p32);
    const std::uint32_t chip = perChip.div(blk);
    PpnParts parts;
    parts.page = static_cast<int>(p32 - blk * pagesPerBlock);
    parts.block = static_cast<BlockId>(blk - chip * blocksPerChip);
    parts.chip = static_cast<int>(chip);
    return parts;
}

std::size_t
PageMapping::blockIndex(int chip, BlockId block) const
{
    AERO_CHECK(chip >= 0 && chip < chips, "chip out of range");
    AERO_CHECK(block < blocksPerChip, "block out of range");
    return static_cast<std::size_t>(chip) * blocksPerChip + block;
}

} // namespace aero
