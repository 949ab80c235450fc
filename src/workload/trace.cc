#include "workload/trace.hh"

#include <cstdio>

namespace aero
{

void
TraceStatsAcc::add(const TraceRecord &r, std::uint32_t page_kb)
{
    if (requests == 0)
        first = r.arrival;
    last = r.arrival;
    requests += 1;
    if (r.op == IoOp::Read)
        reads += 1;
    sizeSum += static_cast<double>(r.pages) * page_kb;
    const Lpn last_page = r.startPage + r.pages - 1;
    if (last_page > maxPage)
        maxPage = last_page;
}

TraceStats
TraceStatsAcc::finalize() const
{
    TraceStats s;
    s.requests = requests;
    if (requests == 0)
        return s;
    s.readRatio = static_cast<double>(reads) /
                  static_cast<double>(requests);
    s.avgReqSizeKB = sizeSum / static_cast<double>(requests);
    s.maxPage = maxPage;
    if (requests > 1) {
        const double span = static_cast<double>(last - first);
        s.avgInterArrivalMs = span / static_cast<double>(kMs) /
                              static_cast<double>(requests - 1);
    }
    return s;
}

std::string
statsRow(const std::string &name, const TraceStats &s)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%-8s %9zu reqs  read %5.1f%%  avg %5.1f KB  "
                  "inter-arrival %8.2f ms",
                  name.c_str(), s.requests, 100.0 * s.readRatio,
                  s.avgReqSizeKB, s.avgInterArrivalMs);
    return buf;
}

} // namespace aero
