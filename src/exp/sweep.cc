#include "exp/sweep.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <type_traits>

#include "common/logging.hh"
#include "common/parse.hh"
#include "exp/report.hh"
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
        const auto v = parseDecimal<int>(env);
        if (!v || *v == 0) {
            AERO_FATAL("AERO_SWEEP_THREADS must be a positive integer, "
                       "got '", env, "'");
        }
        return *v;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace
{

/**
 * An axis value from a run_sweep token; fatal, naming @p what, on
 * malformed text or an unknown enum name.
 */
template <typename T>
T
fromText(const std::string &what, const std::string &text)
{
    if constexpr (std::is_enum_v<T>) {
        return enumFromName<T>(text);
    } else if constexpr (std::is_integral_v<T>) {
        return parseDecimalOrDie<T>(what, text);
    } else if constexpr (std::is_floating_point_v<T>) {
        T v{};
        const char *last = text.data() + text.size();
        const auto [end, ec] = std::from_chars(text.data(), last, v);
        if (text.empty() || ec != std::errc{} || end != last ||
            !std::isfinite(v))
            AERO_FATAL(what, ": '", text, "' is not a number");
        return v;
    } else {
        return text;
    }
}

/** The table entry over SweepSpec::*values and SimPoint::*member. */
template <typename T>
SweepAxis
makeAxis(Axis id, const char *specKey, const char *column, bool optional,
         const char *help, std::vector<T> SweepSpec::*values,
         T SimPoint::*member,
         std::vector<std::pair<std::string, std::vector<T>>> presets = {})
{
    SweepAxis axis{id, specKey, column, optional, help, {}, {}, {}, {}, {},
                   {}};
    for (const auto &preset : presets)
        axis.presets.push_back(preset.first);
    axis.size = [values](const SweepSpec &spec) {
        return (spec.*values).size();
    };
    axis.assign = [values, member](const SweepSpec &spec, std::size_t i,
                                   SimPoint &point) {
        point.*member = (spec.*values)[i];
    };
    Field<SimPoint> f = field(column, member);
    axis.get = std::move(f.get);
    axis.set = std::move(f.set);
    axis.parse = [values, presets, flag = axis.flag()](
                     const std::string &list, SweepSpec &spec) {
        for (const auto &[name, preset] : presets) {
            if (list == name) {
                spec.*values = preset;
                return;
            }
        }
        std::vector<T> parsed;
        std::istringstream tokens(list);
        for (std::string token; std::getline(tokens, token, ',');) {
            if (!token.empty())
                parsed.push_back(fromText<T>(flag, token));
        }
        spec.*values = std::move(parsed);
    };
    return axis;
}

} // namespace

std::string
SweepAxis::flag() const
{
    std::string out = "--" + specKey;
    std::replace(out.begin(), out.end(), '_', '-');
    return out;
}

const std::vector<SweepAxis> &
sweepAxes()
{
    using S = SweepSpec;
    using P = SimPoint;
    static const std::vector<SweepAxis> table = {
        makeAxis(Axis::Workload, "workloads", "workload", false,
                 "Table-3 workload names", &S::workloads, &P::workload),
        makeAxis(Axis::Scheme, "schemes", "scheme", false,
                 "erase scheme names", &S::schemes, &P::scheme,
                 {{"all", allSchemes()}}),
        makeAxis(Axis::Pec, "pecs", "pec", false, "P/E-cycle points",
                 &S::pecs, &P::pec, {{"paper", paperPecPoints()}}),
        makeAxis(Axis::Suspension, "suspensions", "suspension", false,
                 "suspension modes none|mid-segment (or off|on)",
                 &S::suspensions, &P::suspension,
                 {{"both",
                   {SuspensionMode::None, SuspensionMode::MidSegment}}}),
        makeAxis(Axis::MispredictionRate, "misprediction_rates",
                 "misprediction_rate", false,
                 "injected FELP misprediction rates",
                 &S::mispredictionRates, &P::mispredictionRate),
        makeAxis(Axis::RberRequirement, "rber_requirements",
                 "rber_requirement", false, "RBER requirements [bits/1KiB]",
                 &S::rberRequirements, &P::rberRequirement),
        makeAxis(Axis::GcPolicy, "gc_policies", "gc_policy", true,
                 "GC victim policies", &S::gcPolicies, &P::gcPolicy),
        makeAxis(Axis::WearLevel, "wear_levels", "wear_level", true,
                 "wear-leveling policies", &S::wearLevels, &P::wearLevel),
        makeAxis(Axis::Seed, "seeds", "seed", false, "per-point trace seeds",
                 &S::seeds, &P::seed),
    };
    return table;
}

const Fields<SimPoint> &
SimPoint::fields()
{
    static const Fields<SimPoint> table = [] {
        Fields<SimPoint> out;
        for (const SweepAxis &axis : sweepAxes()) {
            if (axis.id == Axis::Seed)
                out.push_back(field("requests", &SimPoint::requests));
            Field<SimPoint> f{axis.column, axis.get, axis.set, {}};
            if (axis.optional) {
                f.written = [&axis](const SimPoint &point) {
                    return !axis.omitted(axis.get(point));
                };
            }
            out.push_back(std::move(f));
        }
        return out;
    }();
    return table;
}

namespace
{

/** Each axis's value count, indexed by Axis. */
std::array<std::size_t, kAxisCount>
extents(const SweepSpec &spec)
{
    std::array<std::size_t, kAxisCount> n{};
    for (const SweepAxis &axis : sweepAxes())
        n[static_cast<std::size_t>(axis.id)] = axis.size(spec);
    return n;
}

} // namespace

std::size_t
SweepSpec::size() const
{
    std::size_t total = 1;
    for (const std::size_t n : extents(*this))
        total *= n;
    return total;
}

std::vector<SimPoint>
SweepSpec::expand() const
{
    const auto n = extents(*this);
    std::vector<SimPoint> points(size());
    for (std::size_t flat = 0; flat < points.size(); ++flat) {
        // Mixed-radix digits of the flat position, innermost axis last.
        std::array<std::size_t, kAxisCount> ix{};
        for (std::size_t k = kAxisCount, rem = flat; k-- > 0; rem /= n[k])
            ix[k] = rem % n[k];
        for (const SweepAxis &axis : sweepAxes())
            axis.assign(*this, ix[static_cast<std::size_t>(axis.id)],
                        points[flat]);
        points[flat].requests = requests;
    }
    return points;
}

std::size_t
SweepSpec::index(std::initializer_list<std::pair<Axis, std::size_t>> at) const
{
    std::array<std::size_t, kAxisCount> ix{};
    std::array<bool, kAxisCount> named{};
    for (const auto &[axis, i] : at) {
        const auto k = static_cast<std::size_t>(axis);
        AERO_CHECK(!named[k], "sweep axis named twice in index()");
        named[k] = true;
        ix[k] = i;
    }
    const auto n = extents(*this);
    std::size_t flat = 0;
    for (std::size_t k = 0; k < kAxisCount; ++k) {
        AERO_CHECK(ix[k] < n[k], "sweep axis index out of range");
        flat = flat * n[k] + ix[k];
    }
    return flat;
}

void
SweepSpec::validate() const
{
    for (const SweepAxis &axis : sweepAxes()) {
        const std::size_t n = axis.size(*this);
        if (n == 0)
            AERO_FATAL("sweep has no ", axis.specKey);
        std::vector<Json> seen;
        SimPoint pt;
        for (std::size_t i = 0; i < n; ++i) {
            axis.assign(*this, i, pt);
            Json value = axis.get(pt);
            if (std::find(seen.begin(), seen.end(), value) != seen.end())
                AERO_FATAL(axis.flag(), " repeats ", columnText(value),
                           ": each point needs its own report row");
            seen.push_back(std::move(value));
        }
    }
    for (const std::string &workload : workloads)
        (void)workloadByName(workload);
    if (requests == 0)
        AERO_FATAL("sweep has zero requests per point");
    for (const SimPoint &pt : expand())
        pointConfig(pt, base).validate();
}

SweepRunner::SweepRunner(int threads)
    : poolSize(threads <= 0 ? sweepThreads() : threads)
{
}

std::vector<SimResult>
SweepRunner::run(const SweepSpec &spec, CampaignScope scope,
                 const Progress &progress) const
{
    spec.validate();
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
