#include "ssd/mapping.hh"

#include "common/logging.hh"

namespace aero
{

PageMapping::PageMapping(std::uint64_t logical_pages, int chips_,
                         int blocks_per_chip, int pages_per_block)
    : chips(chips_),
      blocksPerChip(static_cast<std::uint32_t>(blocks_per_chip)),
      pagesPerBlock(static_cast<std::uint32_t>(pages_per_block)),
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
        std::int32_t &valid = validCount[old / pagesPerBlock];
        valid -= 1;
        AERO_CHECK(valid >= 0, "negative valid count");
    } else {
        ++mapped;
    }
    l2p[lpn] = dst;
    p2l[dst] = static_cast<std::uint32_t>(lpn);
    validCount[dst / pagesPerBlock] += 1;
    return old == kNoEntry ? kInvalidPpn : old;
}

void
PageMapping::invalidateLpn(Lpn lpn)
{
    AERO_CHECK(lpn < l2p.size(), "LPN out of range: ", lpn);
    const std::uint32_t old = l2p[lpn];
    if (old == kNoEntry)
        return;
    p2l[old] = kNoEntry;
    std::int32_t &valid = validCount[old / pagesPerBlock];
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
    const std::uint32_t blk = p32 / pagesPerBlock;
    PpnParts parts;
    parts.page = static_cast<int>(p32 % pagesPerBlock);
    parts.block = static_cast<BlockId>(blk % blocksPerChip);
    parts.chip = static_cast<int>(blk / blocksPerChip);
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
