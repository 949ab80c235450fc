/**
 * @file
 * Synthetic trace generation matched to a WorkloadSpec's aggregate
 * statistics: Poisson arrivals at the spec's (accelerated) rate, request
 * sizes drawn log-normally around the spec's mean, Zipfian spatial
 * locality for both reads and hot writes, plus sequential write runs --
 * the mix that drives realistic GC invalidation patterns.
 *
 * SyntheticTraceStream yields the records one at a time, so a replay or
 * a stats pass holds one record, not the trace. generateTrace() collects
 * the same records into a vector for callers that replay one trace many
 * times.
 */

#ifndef AERO_WORKLOAD_SYNTHETIC_HH
#define AERO_WORKLOAD_SYNTHETIC_HH

#include "common/rng.hh"
#include "workload/presets.hh"
#include "workload/trace_io/stream.hh"

namespace aero
{

/** Longest request the generator draws, in pages; also the smallest
 *  footprint it accepts, so every request fits. */
constexpr std::uint32_t kMaxRequestPages = 64;

struct SyntheticConfig
{
    WorkloadSpec spec;
    std::uint64_t footprintPages = 1 << 20;  //!< logical pages touched
    std::uint32_t pageSizeKB = 16;
    std::uint64_t numRequests = 100000;
    std::uint64_t seed = 99;
    double zipfTheta = 0.9;          //!< skew of the hot set
    double seqWriteFraction = 0.35;  //!< writes that extend a seq. stream
    /** Additional arrival-rate multiplier (1 = spec rate). */
    double intensityScale = 1.0;
};

/** The generator: cfg.numRequests arrival-ordered records, drawn from a
 *  private RNG seeded with cfg.seed, so a config always yields the same
 *  records in the same order. */
class SyntheticTraceStream final : public TraceStream
{
  public:
    explicit SyntheticTraceStream(const SyntheticConfig &cfg);

    bool next(TraceRecord &out) override;

  private:
    SyntheticConfig cfg;
    Rng rng;
    ZipfGenerator zipf;
    double interMs;    //!< mean inter-arrival after intensity scaling
    double meanPages;  //!< log-normal size centre, floor one page
    double nowMs = 0.0;
    Lpn seqCursor;     //!< next page of the sequential write stream
    std::uint64_t emitted = 0;
};

/** Every record of a SyntheticTraceStream, collected into a vector. */
Trace generateTrace(const SyntheticConfig &cfg);

} // namespace aero

#endif // AERO_WORKLOAD_SYNTHETIC_HH
