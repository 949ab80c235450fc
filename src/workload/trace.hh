/**
 * @file
 * Block-I/O trace representation. The logical address unit is one flash
 * page (16 KiB in the paper's SSD configuration); sub-page requests are
 * rounded up, matching how the FTL services them.
 */

#ifndef AERO_WORKLOAD_TRACE_HH
#define AERO_WORKLOAD_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "exp/record.hh"

namespace aero
{

enum class IoOp : std::uint8_t { Read, Write };

// TenantId (the multi-tenant QoS accounting identity) lives in
// common/types.hh so the SSD's PageOps can carry it without pulling in
// the workload layer. Tenant 0 is the default (single-tenant) identity;
// TenantMix retags merged records with each source stream's index.

struct TraceRecord
{
    Tick arrival = 0;      //!< absolute arrival time
    IoOp op = IoOp::Read;
    Lpn startPage = 0;     //!< first logical page
    std::uint32_t pages = 1;
    TenantId tenant = 0;   //!< QoS accounting bucket (see ssd/metrics.hh)
};

using Trace = std::vector<TraceRecord>;

/** Aggregate I/O characteristics of a trace (the paper's Table 3). */
struct TraceStats
{
    std::size_t requests = 0;
    double readRatio = 0.0;        //!< fraction of read requests
    double avgReqSizeKB = 0.0;
    double avgInterArrivalMs = 0.0;
    Lpn maxPage = 0;

    /** Defined with ExtendedTraceStats's columns (trace_stats.cc). */
    static const Fields<TraceStats> &fields();
};

/**
 * Running Table-3 aggregates over records fed in arrival order: the one
 * stats pass behind computeStreamStats() and computeExtendedStats().
 */
struct TraceStatsAcc
{
    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    double sizeSum = 0.0;
    Tick first = 0;
    Tick last = 0;
    Lpn maxPage = 0;

    void add(const TraceRecord &r, std::uint32_t page_kb);
    TraceStats finalize() const;
};

/** Render stats as a Table 3 style row. */
std::string statsRow(const std::string &name, const TraceStats &s);

} // namespace aero

#endif // AERO_WORKLOAD_TRACE_HH
