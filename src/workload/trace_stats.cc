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

Json
toJson(const ExtendedTraceStats &s)
{
    Json row = Json::object();
    row["requests"] = static_cast<std::uint64_t>(s.basic.requests);
    row["read_ratio"] = s.basic.readRatio;
    row["avg_req_size_kb"] = s.basic.avgReqSizeKB;
    row["avg_inter_arrival_ms"] = s.basic.avgInterArrivalMs;
    row["max_page"] = s.basic.maxPage;
    row["write_avg_size_kb"] = s.writeAvgSizeKB;
    row["read_avg_size_kb"] = s.readAvgSizeKB;
    row["hot_1pct_fraction"] = s.hot1pctFraction;
    row["distinct_pages"] = s.distinctPages;
    row["total_pages_accessed"] = s.totalPagesAccessed;
    return row;
}

ExtendedTraceStats
extendedStatsFromJson(const Json &row)
{
    ExtendedTraceStats s;
    s.basic.requests =
        static_cast<std::size_t>(row.get("requests").asUint64());
    s.basic.readRatio = row.get("read_ratio").asDouble();
    s.basic.avgReqSizeKB = row.get("avg_req_size_kb").asDouble();
    s.basic.avgInterArrivalMs =
        row.get("avg_inter_arrival_ms").asDouble();
    s.basic.maxPage = row.get("max_page").asUint64();
    s.writeAvgSizeKB = row.get("write_avg_size_kb").asDouble();
    s.readAvgSizeKB = row.get("read_avg_size_kb").asDouble();
    s.hot1pctFraction = row.get("hot_1pct_fraction").asDouble();
    s.distinctPages = row.get("distinct_pages").asUint64();
    s.totalPagesAccessed = row.get("total_pages_accessed").asUint64();
    return s;
}

} // namespace aero
