#include "exp/sweep.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/logging.hh"
#include "erase/scheme_registry.hh"
#include "exp/report.hh"
#include "ssd/gc.hh"
#include "ssd/wear_level.hh"
#include "workload/presets.hh"

namespace aero
{

namespace detail
{

int
resolvePoolSize(int threads, std::size_t items)
{
    if (threads <= 0)
        threads = sweepThreads();
    if (static_cast<std::size_t>(threads) > items)
        threads = static_cast<int>(items);
    return threads < 1 ? 1 : threads;
}

} // namespace detail

int
sweepThreads()
{
    if (const char *env = std::getenv("AERO_SWEEP_THREADS")) {
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(env, &end, 10);
        if (*env == '\0' || end == nullptr || *end != '\0' ||
            errno == ERANGE || v <= 0) {
            AERO_FATAL("AERO_SWEEP_THREADS must be a positive integer, "
                       "got '", env, "'");
        }
        return static_cast<int>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::size_t
SweepSpec::size() const
{
    return pecs.size() * suspensions.size() * workloads.size() *
           schemes.size() * mispredictionRates.size() *
           rberRequirements.size() * gcPolicies.size() *
           wearLevels.size() * sloPolicies.size() * seeds.size();
}

std::vector<SimPoint>
SweepSpec::expand() const
{
    std::vector<SimPoint> points;
    points.reserve(size());
    for (const double pec : pecs) {
        for (const auto susp : suspensions) {
            for (const auto &wl : workloads) {
                for (const auto scheme : schemes) {
                    for (const double mis : mispredictionRates) {
                        for (const int rber : rberRequirements) {
                            for (const auto &gc : gcPolicies) {
                                for (const auto &wear : wearLevels) {
                                  for (const auto &slo : sloPolicies) {
                                    for (const auto seed : seeds) {
                                        SimPoint pt;
                                        pt.workload = wl;
                                        pt.scheme = scheme;
                                        pt.pec = pec;
                                        pt.suspension = susp;
                                        pt.mispredictionRate = mis;
                                        pt.rberRequirement = rber;
                                        pt.gcPolicy = gc;
                                        pt.wearLevel = wear;
                                        pt.sloPolicy = slo;
                                        pt.requests = requests;
                                        pt.seed = seed;
                                        points.push_back(pt);
                                    }
                                  }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return points;
}

std::size_t
SweepSpec::index(std::size_t pec, std::size_t susp, std::size_t wl,
                 std::size_t scheme, std::size_t mis, std::size_t rber,
                 std::size_t seed, std::size_t gc, std::size_t wear,
                 std::size_t slo) const
{
    AERO_CHECK(pec < pecs.size() && susp < suspensions.size() &&
                   wl < workloads.size() && scheme < schemes.size() &&
                   mis < mispredictionRates.size() &&
                   rber < rberRequirements.size() &&
                   gc < gcPolicies.size() && wear < wearLevels.size() &&
                   slo < sloPolicies.size() && seed < seeds.size(),
               "sweep axis index out of range");
    std::size_t idx = pec;
    idx = idx * suspensions.size() + susp;
    idx = idx * workloads.size() + wl;
    idx = idx * schemes.size() + scheme;
    idx = idx * mispredictionRates.size() + mis;
    idx = idx * rberRequirements.size() + rber;
    idx = idx * gcPolicies.size() + gc;
    idx = idx * wearLevels.size() + wear;
    idx = idx * sloPolicies.size() + slo;
    idx = idx * seeds.size() + seed;
    return idx;
}

SweepBuilder &
SweepBuilder::workload(const std::string &name)
{
    spec.workloads = {name};
    return *this;
}

SweepBuilder &
SweepBuilder::workloads(const std::vector<std::string> &names)
{
    spec.workloads = names;
    return *this;
}

SweepBuilder &
SweepBuilder::allTable3Workloads()
{
    spec.workloads.clear();
    for (const auto &w : table3Workloads())
        spec.workloads.push_back(w.name);
    return *this;
}

SweepBuilder &
SweepBuilder::scheme(SchemeKind kind)
{
    spec.schemes = {kind};
    return *this;
}

SweepBuilder &
SweepBuilder::schemes(const std::vector<SchemeKind> &kinds)
{
    spec.schemes = kinds;
    return *this;
}

SweepBuilder &
SweepBuilder::schemeNames(const std::vector<std::string> &names)
{
    spec.schemes.clear();
    for (const auto &name : names)
        spec.schemes.push_back(schemeKindFromName(name));
    return *this;
}

SweepBuilder &
SweepBuilder::allSchemes()
{
    spec.schemes = aero::allSchemes();
    return *this;
}

SweepBuilder &
SweepBuilder::pec(double pec)
{
    spec.pecs = {pec};
    return *this;
}

SweepBuilder &
SweepBuilder::pecs(const std::vector<double> &pecs)
{
    spec.pecs = pecs;
    return *this;
}

SweepBuilder &
SweepBuilder::paperPecs()
{
    spec.pecs = paperPecPoints();
    return *this;
}

SweepBuilder &
SweepBuilder::suspension(SuspensionMode mode)
{
    spec.suspensions = {mode};
    return *this;
}

SweepBuilder &
SweepBuilder::suspensions(const std::vector<SuspensionMode> &modes)
{
    spec.suspensions = modes;
    return *this;
}

SweepBuilder &
SweepBuilder::mispredictionRate(double rate)
{
    spec.mispredictionRates = {rate};
    return *this;
}

SweepBuilder &
SweepBuilder::mispredictionRates(const std::vector<double> &rates)
{
    spec.mispredictionRates = rates;
    return *this;
}

SweepBuilder &
SweepBuilder::rberRequirement(int bits)
{
    spec.rberRequirements = {bits};
    return *this;
}

SweepBuilder &
SweepBuilder::rberRequirements(const std::vector<int> &bits)
{
    spec.rberRequirements = bits;
    return *this;
}

SweepBuilder &
SweepBuilder::gcPolicy(const std::string &name)
{
    spec.gcPolicies = {name};
    return *this;
}

SweepBuilder &
SweepBuilder::gcPolicies(const std::vector<std::string> &names)
{
    spec.gcPolicies = names;
    return *this;
}

SweepBuilder &
SweepBuilder::wearLevel(const std::string &name)
{
    spec.wearLevels = {name};
    return *this;
}

SweepBuilder &
SweepBuilder::wearLevels(const std::vector<std::string> &names)
{
    spec.wearLevels = names;
    return *this;
}

SweepBuilder &
SweepBuilder::sloPolicy(const std::string &name)
{
    spec.sloPolicies = {name};
    return *this;
}

SweepBuilder &
SweepBuilder::sloPolicies(const std::vector<std::string> &names)
{
    spec.sloPolicies = names;
    return *this;
}

SweepBuilder &
SweepBuilder::seed(std::uint64_t seed)
{
    spec.seeds = {seed};
    return *this;
}

SweepBuilder &
SweepBuilder::seeds(const std::vector<std::uint64_t> &seeds)
{
    spec.seeds = seeds;
    return *this;
}

SweepBuilder &
SweepBuilder::repeats(int n, std::uint64_t base, std::uint64_t stride)
{
    AERO_CHECK(n > 0, "repeats() needs n > 0");
    spec.seeds.clear();
    for (int i = 0; i < n; ++i)
        spec.seeds.push_back(base + stride * static_cast<std::uint64_t>(i));
    return *this;
}

SweepBuilder &
SweepBuilder::requests(std::uint64_t n)
{
    spec.requests = n;
    return *this;
}

SweepBuilder &
SweepBuilder::baseConfig(const SsdConfig &cfg)
{
    spec.base = cfg;
    return *this;
}

SweepSpec
SweepBuilder::build() const
{
    if (spec.workloads.empty())
        AERO_FATAL("sweep has no workloads");
    if (spec.schemes.empty())
        AERO_FATAL("sweep has no schemes");
    if (spec.pecs.empty())
        AERO_FATAL("sweep has no PEC points");
    if (spec.suspensions.empty())
        AERO_FATAL("sweep has no suspension modes");
    if (spec.mispredictionRates.empty())
        AERO_FATAL("sweep has no misprediction rates");
    if (spec.rberRequirements.empty())
        AERO_FATAL("sweep has no RBER requirements");
    if (spec.gcPolicies.empty())
        AERO_FATAL("sweep has no GC policies");
    if (spec.wearLevels.empty())
        AERO_FATAL("sweep has no wear-leveling policies");
    if (spec.sloPolicies.empty())
        AERO_FATAL("sweep has no SLO policies");
    if (spec.seeds.empty())
        AERO_FATAL("sweep has no seeds");
    if (spec.requests == 0)
        AERO_FATAL("sweep has zero requests per point");
    // Fail on a typo'd workload before hours of simulation, not after.
    for (const auto &name : spec.workloads)
        (void)workloadByName(name);
    // Same for typo'd policy names: both registries are fatal on unknown.
    for (const auto &name : spec.gcPolicies)
        (void)makeGcPolicy(name);
    for (const auto &name : spec.wearLevels)
        (void)makeWearLevelPolicy(name);
    for (const auto &name : spec.sloPolicies)
        (void)sloPolicyFromName(name);
    return spec;
}

SweepRunner::SweepRunner(int threads)
    : poolSize(threads <= 0 ? sweepThreads() : threads)
{
}

std::vector<SimResult>
SweepRunner::run(const SweepSpec &spec, CampaignScope scope,
                 const Progress &progress) const
{
    const auto points = spec.expand();
    const auto keyOf = [&](std::size_t, const SimPoint &pt) {
        return scope.key("point", toJson(pt));
    };
    std::size_t total = points.size();
    if (progress && scope) {
        for (std::size_t i = 0; i < points.size(); ++i)
            total -= scope.journal->has(keyOf(i, points[i])) ? 1 : 0;
    }
    std::mutex progressMutex;
    std::size_t done = 0;  // guarded by progressMutex
    return parallelMapJournaled(
        scope.journal, points, keyOf,
        [&](const SimPoint &pt) {
            SimResult r = runSimPoint(pt, spec.base);
            if (progress) {
                // Count inside the lock so reported progress only
                // moves forward.
                std::lock_guard<std::mutex> lock(progressMutex);
                progress(++done, total, r);
            }
            return r;
        },
        [](const SimResult &r) { return toJson(r); }, simResultFromJson,
        poolSize);
}

SweepRunner::Progress
stderrProgress()
{
    return [](std::size_t done, std::size_t total, const SimResult &latest) {
        std::fprintf(stderr, "  [%zu/%zu] %s %s pec=%.0f seed=%llu\n", done,
                     total, latest.point.workload.c_str(),
                     schemeKindName(latest.point.scheme), latest.point.pec,
                     static_cast<unsigned long long>(latest.point.seed));
    };
}

} // namespace aero
