/**
 * @file
 * Extended trace analysis beyond the Table 3 aggregates: footprint
 * coverage, hot-page concentration, and read/write size breakdowns --
 * used by the workload tests and the tab03 bench.
 */

#ifndef AERO_WORKLOAD_TRACE_STATS_HH
#define AERO_WORKLOAD_TRACE_STATS_HH

#include "exp/record.hh"
#include "workload/trace_io/stream.hh"

namespace aero
{

struct ExtendedTraceStats
{
    TraceStats basic;
    double writeAvgSizeKB = 0.0;
    double readAvgSizeKB = 0.0;
    /** Fraction of accesses landing on the hottest 1 % of touched pages. */
    double hot1pctFraction = 0.0;
    /** Distinct pages touched / footprint pages scanned. */
    std::uint64_t distinctPages = 0;
    std::uint64_t totalPagesAccessed = 0;

    /** basic's columns first, then these (exp/record.hh). */
    static const Fields<ExtendedTraceStats> &fields();
};

/** One pass over @p stream; holds one counter per distinct start page. */
ExtendedTraceStats computeExtendedStats(TraceStream &stream,
                                        std::uint32_t page_kb);

} // namespace aero

#endif // AERO_WORKLOAD_TRACE_STATS_HH
