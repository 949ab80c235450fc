/**
 * @file
 * Full-drive physical geometry: channel -> die -> plane -> block -> page,
 * derived from SsdConfig. FEMU's FTL keeps the same decomposition behind
 * `ppa2pgidx`/`pgidx2ppa`; here the flat index doubles as the global page
 * id the topology tests use to prove the encoding is a bijection and that
 * it agrees with PageMapping's (chip, block, page) PPN layout.
 *
 * Validation is two-tiered: validate() holds for every drive the
 * simulator can run (positive counts, per-die plane limit), while
 * validateQueued() adds the constraints the queued channel-arbitration
 * fast path relies on (power-of-two pages per block, so page indices
 * split into shift/mask fields). The paper's Table 2 drive (2112 pages
 * per block) is legal under legacy arbitration and rejected only when
 * queued arbitration is requested. validate() also bounds the page
 * count: PageMapping stores page numbers in 32 bits, so a drive must have
 * fewer than PageMapping::kNoEntry (2^32 - 1) physical pages.
 */

#ifndef AERO_SSD_GEOMETRY_HH
#define AERO_SSD_GEOMETRY_HH

#include <cstdint>

#include "ssd/config.hh"

namespace aero
{

/** One physical page address, fully decomposed. */
struct Ppa
{
    int channel = 0;
    int die = 0;    //!< die (chip) index within its channel
    int plane = 0;
    int block = 0;  //!< block index within its plane
    int page = 0;
};

class DriveGeometry
{
  public:
    /** Channels in the drive. */
    int channels = 0;
    /** Dies (chips) per channel. */
    int diesPerChannel = 0;
    /** Planes per die. */
    int planesPerDie = 0;
    /** Blocks per plane. */
    int blocksPerPlane = 0;
    /** Pages per block. */
    int pagesPerBlock = 0;

    /** Dies sharing one channel bus is bounded by ONFI CE lines. */
    static constexpr int kMaxPlanesPerDie = 8;

    static DriveGeometry of(const SsdConfig &cfg);

    /** Fatal on any geometry no drive can have (see file comment). */
    void validate() const;

    /** validate() plus the queued-arbitration constraints. */
    void validateQueued() const;

    int totalDies() const { return channels * diesPerChannel; }
    int blocksPerDie() const { return planesPerDie * blocksPerPlane; }

    /** Physical pages in the drive, saturating at UINT64_MAX. */
    std::uint64_t totalPages() const;

    /** Flat chip index of a decomposed address. */
    int
    chipOf(const Ppa &ppa) const
    {
        return ppa.channel * diesPerChannel + ppa.die;
    }

    int channelOfChip(int chip) const { return chip / diesPerChannel; }

    /** Chip-local block id (plane-major, as BlockManager lays them out). */
    BlockId
    chipBlockOf(const Ppa &ppa) const
    {
        return static_cast<BlockId>(ppa.plane * blocksPerPlane + ppa.block);
    }

    /** FEMU's ppa2pgidx: dense flat page index over the whole drive. */
    std::uint64_t pageIndex(const Ppa &ppa) const;

    /** Inverse of pageIndex (pgidx2ppa). */
    Ppa ppaOf(std::uint64_t pgidx) const;
};

} // namespace aero

#endif // AERO_SSD_GEOMETRY_HH
