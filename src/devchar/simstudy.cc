#include "devchar/simstudy.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/parse.hh"

namespace aero
{

std::uint64_t
defaultSimRequests(std::uint64_t fallback)
{
    const char *env = std::getenv("AERO_SIM_REQUESTS");
    if (env == nullptr)
        return fallback;
    const auto v = parseDecimal<std::uint64_t>(env);
    if (!v || *v == 0) {
        AERO_FATAL("AERO_SIM_REQUESTS must be a positive integer, got '",
                   env, "'");
    }
    return *v;
}

const std::vector<SchemeKind> &
allSchemes()
{
    static const std::vector<SchemeKind> kinds = {
        SchemeKind::Baseline, SchemeKind::IIspe, SchemeKind::Dpes,
        SchemeKind::AeroCons, SchemeKind::Aero,
    };
    return kinds;
}

const std::vector<double> &
paperPecPoints()
{
    static const std::vector<double> pecs = {500.0, 2500.0, 4500.0};
    return pecs;
}

SimResult
runSimPoint(const SimPoint &point)
{
    return runSimPoint(point, SsdConfig::bench());
}

SsdConfig
pointConfig(const SimPoint &point, const SsdConfig &base)
{
    SsdConfig cfg = base;
    cfg.scheme = point.scheme;
    cfg.initialPec = point.pec;
    cfg.suspension = point.suspension;
    cfg.schemeOptions.mispredictionRate = point.mispredictionRate;
    cfg.schemeOptions.rberRequirement = point.rberRequirement;
    cfg.gcPolicy = point.gcPolicy;
    cfg.wearLevel = point.wearLevel;
    cfg.seed = point.seed ^ 0x51ULL;
    return cfg;
}

SimResult
runSimPoint(const SimPoint &point, const SsdConfig &base)
{
    Ssd ssd(pointConfig(point, base));

    SyntheticConfig wc;
    wc.spec = workloadByName(point.workload);
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = point.requests;
    wc.seed = point.seed;
    SyntheticTraceStream trace(wc);
    ssd.run(trace);

    const SsdMetrics &m = ssd.metrics();
    SimResult r;
    r.point = point;
    r.avgReadUs = m.readLatency.mean() / static_cast<double>(kUs);
    r.avgWriteUs = m.writeLatency.mean() / static_cast<double>(kUs);
    r.iops = m.iops();
    r.p999Us = ticksToUs(m.readLatency.percentile(0.999));
    r.p9999Us = ticksToUs(m.readLatency.percentile(0.9999));
    r.p999999Us = ticksToUs(m.readLatency.percentile(0.999999));
    r.erases = m.erases;
    r.avgEraseMs = m.avgEraseLatencyMs();
    r.suspensions = m.eraseSuspensions;
    r.writeAmplification = m.writeAmplification();
    return r;
}

} // namespace aero
