#include "workload/trace_stats.hh"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace aero
{

ExtendedTraceStats
computeExtendedStats(TraceStream &stream, std::uint32_t page_kb)
{
    ExtendedTraceStats s;
    TraceStatsAcc basic;
    double wsum = 0.0, rsum = 0.0;
    std::uint64_t wcnt = 0, rcnt = 0;
    std::unordered_map<Lpn, std::uint64_t> touch;
    TraceRecord r;
    while (stream.next(r)) {
        basic.add(r, page_kb);
        const double kb = static_cast<double>(r.pages) * page_kb;
        if (r.op == IoOp::Read) {
            rsum += kb;
            ++rcnt;
        } else {
            wsum += kb;
            ++wcnt;
        }
        // Count first-page touches only: cheap proxy for locality that is
        // insensitive to request size.
        touch[r.startPage] += 1;
        s.totalPagesAccessed += r.pages;
    }
    s.basic = basic.finalize();
    s.readAvgSizeKB = rcnt ? rsum / static_cast<double>(rcnt) : 0.0;
    s.writeAvgSizeKB = wcnt ? wsum / static_cast<double>(wcnt) : 0.0;
    s.distinctPages = touch.size();

    std::vector<std::uint64_t> counts;
    counts.reserve(touch.size());
    std::uint64_t total = 0;
    for (const auto &[page, cnt] : touch) {
        counts.push_back(cnt);
        total += cnt;
    }
    std::sort(counts.begin(), counts.end(), std::greater<>());
    const std::size_t hot_n =
        std::max<std::size_t>(1, counts.size() / 100);
    std::uint64_t hot = 0;
    for (std::size_t i = 0; i < hot_n && i < counts.size(); ++i)
        hot += counts[i];
    s.hot1pctFraction = total
        ? static_cast<double>(hot) / static_cast<double>(total)
        : 0.0;
    return s;
}

const Fields<TraceStats> &
TraceStats::fields()
{
    static const Fields<TraceStats> table = {
        field("requests", &TraceStats::requests),
        field("read_ratio", &TraceStats::readRatio),
        field("avg_req_size_kb", &TraceStats::avgReqSizeKB),
        field("avg_inter_arrival_ms", &TraceStats::avgInterArrivalMs),
        field("max_page", &TraceStats::maxPage),
    };
    return table;
}

const Fields<ExtendedTraceStats> &
ExtendedTraceStats::fields()
{
    using E = ExtendedTraceStats;
    static const Fields<E> table = [] {
        Fields<E> out = spliced(&E::basic);
        out.insert(out.end(),
                   {field("write_avg_size_kb", &E::writeAvgSizeKB),
                    field("read_avg_size_kb", &E::readAvgSizeKB),
                    field("hot_1pct_fraction", &E::hot1pctFraction),
                    field("distinct_pages", &E::distinctPages),
                    field("total_pages_accessed", &E::totalPagesAccessed)});
        return out;
    }();
    return table;
}

} // namespace aero
