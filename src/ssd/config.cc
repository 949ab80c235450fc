#include "ssd/config.hh"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "ssd/mapping.hh"

namespace aero
{

const SsdConfig &
SsdConfig::validate() const
{
    if (channels <= 0)
        AERO_FATAL("geometry: channel count must be positive, got ",
                   channels);
    if (chipsPerChannel <= 0)
        AERO_FATAL("geometry: dies per channel must be positive, got ",
                   chipsPerChannel);
    if (geometry.planes <= 0)
        AERO_FATAL("geometry: plane count must be positive, got ",
                   geometry.planes);
    if (geometry.planes > kMaxPlanesPerDie)
        AERO_FATAL("geometry: plane count ", geometry.planes,
                   " exceeds the per-die limit of ", kMaxPlanesPerDie);
    if (geometry.blocksPerPlane <= 0)
        AERO_FATAL("geometry: blocks per plane must be positive, got ",
                   geometry.blocksPerPlane);
    if (geometry.pagesPerBlock <= 0)
        AERO_FATAL("geometry: pages per block must be positive, got ",
                   geometry.pagesPerBlock);
    // physicalPages() multiplies ints, which can wrap before this check:
    // count saturating instead.
    constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t pages = 1;
    for (const int n : {channels, chipsPerChannel, geometry.planes,
                        geometry.blocksPerPlane, geometry.pagesPerBlock}) {
        const auto f = static_cast<std::uint64_t>(n);
        pages = pages > kMax / f ? kMax : pages * f;
    }
    if (pages >= PageMapping::kNoEntry)
        AERO_FATAL("geometry: ", pages,
                   " physical pages do not fit 32-bit page numbers; a "
                   "drive must have fewer than ", PageMapping::kNoEntry);
    if (!(prefillFraction >= 0.0 && prefillFraction <= 1.0))
        AERO_FATAL("conditioning: prefillFraction must be in [0, 1], got ",
                   prefillFraction);
    if (!(std::isfinite(warmupOverwriteFraction) &&
          warmupOverwriteFraction >= 0.0))
        AERO_FATAL("conditioning: warmupOverwriteFraction must be finite "
                   "and non-negative, got ", warmupOverwriteFraction);
    if (sloPolicyWeights(sloPolicy) && arbitration != Arbitration::Queued)
        AERO_FATAL("SLO policy '", enumName(sloPolicy),
                   "' needs queued channel arbitration: weighted-fair "
                   "sharing arbitrates the per-channel grant queues, "
                   "which the legacy closed-form model does not have");
    return *this;
}

SsdConfig
SsdConfig::paper()
{
    SsdConfig c;
    c.channels = 8;
    c.chipsPerChannel = 2;
    c.geometry = ChipGeometry{4, 497, 2112};
    return c;
}

SsdConfig
SsdConfig::bench()
{
    SsdConfig c;
    c.channels = 8;
    c.chipsPerChannel = 2;
    c.geometry = ChipGeometry{4, 32, 128};
    return c;
}

SsdConfig
SsdConfig::tiny()
{
    SsdConfig c;
    c.channels = 2;
    c.chipsPerChannel = 1;
    c.geometry = ChipGeometry{2, 16, 32};
    c.opRatio = 0.45;
    return c;
}

std::string
SsdConfig::summary() const
{
    std::ostringstream os;
    os << "SSD configuration:\n"
       << "  capacity:        "
       << capacityBytes() / (1024.0 * 1024.0 * 1024.0) << " GiB logical ("
       << opRatio * 100.0 << "% OP)\n"
       << "  topology:        " << channels << " channels x "
       << chipsPerChannel << " chips x " << geometry.planes << " planes x "
       << geometry.blocksPerPlane << " blocks x " << geometry.pagesPerBlock
       << " pages x " << pageSizeKB << " KiB\n"
       << "  chip type:       " << chipTypeName(chipType) << "\n"
       << "  erase scheme:    " << schemeKindName(scheme) << "\n"
       << "  suspension:      "
       << (suspension == SuspensionMode::MidSegment ? "enabled"
                                                    : "disabled")
       << "\n"
       << "  arbitration:     " << arbitrationName(arbitration) << "\n"
       << "  GC policy:       " << enumName(gcPolicy) << "\n"
       << "  wear leveling:   " << enumName(wearLevel) << "\n"
       << "  initial PEC:     " << initialPec << "\n";
    if (sloPolicy != SloPolicy::None)
        os << "  SLO policy:      " << enumName(sloPolicy) << " ("
           << renderTenantSloSpec(slo) << ")\n";
    return os.str();
}

} // namespace aero
