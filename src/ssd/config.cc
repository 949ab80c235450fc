#include "ssd/config.hh"

#include <sstream>

#include "common/logging.hh"

namespace aero
{

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
