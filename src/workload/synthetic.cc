#include "workload/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace aero
{

namespace
{

/** Spread Zipf ranks across the footprint deterministically. */
Lpn
rankToPage(std::uint64_t rank, std::uint64_t footprint)
{
    return (rank * 0x9e3779b97f4a7c15ULL) % footprint;
}

/** Validate before any member draws from the config. */
const SyntheticConfig &
checked(const SyntheticConfig &cfg)
{
    AERO_CHECK(cfg.footprintPages >= kMaxRequestPages, "footprint of ",
               cfg.footprintPages, " pages is smaller than the ",
               kMaxRequestPages, "-page maximum request");
    AERO_CHECK(cfg.intensityScale > 0.0, "intensity must be positive");
    return cfg;
}

} // namespace

SyntheticTraceStream::SyntheticTraceStream(const SyntheticConfig &cfg_)
    : cfg(checked(cfg_)), rng(cfg.seed),
      zipf(cfg.footprintPages, cfg.zipfTheta),
      interMs(cfg.spec.effectiveInterArrivalMs() / cfg.intensityScale),
      meanPages(std::max(1.0, cfg.spec.avgReqSizeKB /
                                  static_cast<double>(cfg.pageSizeKB))),
      seqCursor(rng.below(cfg.footprintPages))
{
}

bool
SyntheticTraceStream::next(TraceRecord &out)
{
    if (emitted == cfg.numRequests)
        return false;
    emitted += 1;
    constexpr double size_sigma = 0.6;
    nowMs += rng.expovariate(interMs);
    TraceRecord rec;
    rec.arrival = msToTicks(nowMs);
    rec.op = rng.chance(cfg.spec.readRatio) ? IoOp::Read : IoOp::Write;
    const double raw = meanPages * rng.lognormFactor(size_sigma);
    rec.pages = static_cast<std::uint32_t>(
        std::clamp(std::llround(raw), 1LL,
                   static_cast<long long>(kMaxRequestPages)));
    if (rec.op == IoOp::Write && rng.chance(cfg.seqWriteFraction)) {
        // Extend the sequential stream.
        if (seqCursor + rec.pages >= cfg.footprintPages)
            seqCursor = 0;
        rec.startPage = seqCursor;
        seqCursor += rec.pages;
    } else {
        rec.startPage = rankToPage(zipf.draw(rng), cfg.footprintPages);
        if (rec.startPage + rec.pages > cfg.footprintPages)
            rec.startPage = cfg.footprintPages - rec.pages;
    }
    out = rec;
    return true;
}

Trace
generateTrace(const SyntheticConfig &cfg)
{
    SyntheticTraceStream stream(cfg);
    Trace trace;
    trace.reserve(cfg.numRequests);
    TraceRecord rec;
    while (stream.next(rec))
        trace.push_back(rec);
    return trace;
}

} // namespace aero
