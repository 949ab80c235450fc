#include "ssd/geometry.hh"

#include <limits>

#include "common/logging.hh"
#include "ssd/mapping.hh"

namespace aero
{

namespace
{

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

DriveGeometry
DriveGeometry::of(const SsdConfig &cfg)
{
    DriveGeometry g;
    g.channels = cfg.channels;
    g.diesPerChannel = cfg.chipsPerChannel;
    g.planesPerDie = cfg.geometry.planes;
    g.blocksPerPlane = cfg.geometry.blocksPerPlane;
    g.pagesPerBlock = cfg.geometry.pagesPerBlock;
    return g;
}

void
DriveGeometry::validate() const
{
    if (channels <= 0)
        AERO_FATAL("geometry: channel count must be positive, got ",
                   channels);
    if (diesPerChannel <= 0)
        AERO_FATAL("geometry: dies per channel must be positive, got ",
                   diesPerChannel);
    if (planesPerDie <= 0)
        AERO_FATAL("geometry: plane count must be positive, got ",
                   planesPerDie);
    if (planesPerDie > kMaxPlanesPerDie)
        AERO_FATAL("geometry: plane count ", planesPerDie,
                   " exceeds the per-die limit of ", kMaxPlanesPerDie);
    if (blocksPerPlane <= 0)
        AERO_FATAL("geometry: blocks per plane must be positive, got ",
                   blocksPerPlane);
    if (pagesPerBlock <= 0)
        AERO_FATAL("geometry: pages per block must be positive, got ",
                   pagesPerBlock);
    if (totalPages() >= PageMapping::kNoEntry)
        AERO_FATAL("geometry: ", totalPages(),
                   " physical pages do not fit 32-bit page numbers; a "
                   "drive must have fewer than ", PageMapping::kNoEntry);
}

std::uint64_t
DriveGeometry::totalPages() const
{
    // Saturate instead of wrapping, so no combination of int fields can
    // come back under validate()'s limit.
    constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t pages = 1;
    for (const int n : {channels, diesPerChannel, planesPerDie,
                        blocksPerPlane, pagesPerBlock}) {
        const auto f = static_cast<std::uint64_t>(n);
        pages = f != 0 && pages > kMax / f ? kMax : pages * f;
    }
    return pages;
}

void
DriveGeometry::validateQueued() const
{
    validate();
    if (!isPowerOfTwo(pagesPerBlock))
        AERO_FATAL("geometry: pages per block must be a power of two "
                   "for queued arbitration, got ",
                   pagesPerBlock);
}

std::uint64_t
DriveGeometry::pageIndex(const Ppa &ppa) const
{
    // channel-major, then die, plane, block, page — FEMU's ppa2pgidx
    // ordering, and identical to PageMapping's (chip, chip-block, page)
    // encode because chip = channel*diesPerChannel + die and the
    // chip-local block id is plane-major.
    std::uint64_t idx = static_cast<std::uint64_t>(ppa.channel);
    idx = idx * static_cast<std::uint64_t>(diesPerChannel) + ppa.die;
    idx = idx * static_cast<std::uint64_t>(planesPerDie) + ppa.plane;
    idx = idx * static_cast<std::uint64_t>(blocksPerPlane) + ppa.block;
    idx = idx * static_cast<std::uint64_t>(pagesPerBlock) + ppa.page;
    return idx;
}

Ppa
DriveGeometry::ppaOf(std::uint64_t pgidx) const
{
    AERO_CHECK(pgidx < totalPages(), "page index out of range: ", pgidx);
    Ppa ppa;
    ppa.page = static_cast<int>(pgidx % pagesPerBlock);
    pgidx /= pagesPerBlock;
    ppa.block = static_cast<int>(pgidx % blocksPerPlane);
    pgidx /= blocksPerPlane;
    ppa.plane = static_cast<int>(pgidx % planesPerDie);
    pgidx /= planesPerDie;
    ppa.die = static_cast<int>(pgidx % diesPerChannel);
    pgidx /= diesPerChannel;
    ppa.channel = static_cast<int>(pgidx);
    return ppa;
}

} // namespace aero
