/**
 * @file
 * Declarative experiment sweeps over the system-level simulator.
 *
 * The paper's evaluation is one big grid — 11 Table-3 workloads x 5 erase
 * schemes x 3 PEC points (x seeds x suspension modes x sensitivity
 * overrides). A SweepSpec declares such a grid as one value list per
 * axis, and expand() flattens it to an ordered vector of SimPoints.
 *
 * The nine axes live in one table, sweepAxes(). Everything that walks the
 * axes reads it: size(), expand(), index() and validate(); SimPoint's
 * declared columns (SimPoint::fields(), exp/record.hh), which give a
 * point's report row, its journal key (toJson(SimPoint)), its decoder
 * and its CSV columns; the spec block (exp/report.hh); aero_diff's row
 * keys; and run_sweep's flags and --help. A new axis is a SweepSpec
 * vector, a SimPoint field, an Axis enumerator and one table entry.
 *
 * Goldens, journal keys and fingerprints pin three orders:
 *   - Expansion nests as the Axis enum reads (outermost first), so the
 *     seed varies fastest:
 *       PEC > suspension > workload > scheme > misprediction > RBER
 *           > GC policy > wear leveling > seed
 *   - Report rows and the spec block list the axes in table order
 *     (workload, scheme, pec, suspension, misprediction_rate,
 *     rber_requirement, gc_policy, wear_level, seed). A row carries the
 *     per-spec "requests" just before "seed"; the spec block carries it
 *     after "seeds".
 *   - The optional axes (GC policy, wear leveling) are left out of a row
 *     at their default and out of the spec block when they sweep exactly
 *     [default], so artifacts that never move them keep the bytes they
 *     had before those axes existed.
 *
 * SLO enforcement is not an axis: a sweep's base drive may carry a
 * sloPolicy and its TenantSloSpec, which every point keeps and
 * configOf() fingerprints through the drive summary.
 *
 * SweepRunner executes the points through parallelMapJournaled (each
 * point builds its own Ssd, so points are fully independent) and returns
 * results in spec order regardless of thread count, optionally journaling
 * them into a campaign so a killed sweep resumes. Thread count comes from
 * the constructor, or the AERO_SWEEP_THREADS env, or the hardware.
 */

#ifndef AERO_EXP_SWEEP_HH
#define AERO_EXP_SWEEP_HH

#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "devchar/simstudy.hh"
#include "exp/campaign.hh"
#include "exp/json.hh"
#include "ssd/config.hh"

namespace aero
{

/** The sweep axes, in expansion nesting order (outermost first). */
enum class Axis
{
    Pec,
    Suspension,
    Workload,
    Scheme,
    MispredictionRate,
    RberRequirement,
    GcPolicy,
    WearLevel,
    Seed,
};

inline constexpr std::size_t kAxisCount =
    static_cast<std::size_t>(Axis::Seed) + 1;

struct SweepSpec
{
    /** @name Grid axes (every combination is one SimPoint) */
    /** @{ */
    std::vector<std::string> workloads = {"prxy"};
    std::vector<SchemeKind> schemes = {SchemeKind::Baseline};
    std::vector<double> pecs = {500.0};
    std::vector<SuspensionMode> suspensions = {SuspensionMode::MidSegment};
    std::vector<double> mispredictionRates = {0.0};
    std::vector<int> rberRequirements = {63};
    std::vector<GcPolicy> gcPolicies = {GcPolicy::Greedy};
    std::vector<WearLevel> wearLevels = {WearLevel::None};
    std::vector<std::uint64_t> seeds = {7};
    /** @} */

    /** Requests per point (shared by all points). */
    std::uint64_t requests = 120000;

    /** Base drive every point starts from (axes overwrite its fields). */
    SsdConfig base = SsdConfig::bench();

    /** Number of points the grid expands to. */
    std::size_t size() const;

    /** Flatten the grid, seeds varying fastest (see file comment). */
    std::vector<SimPoint> expand() const;

    /**
     * Flat expand() position of the point at the given per-axis
     * indices; an axis left out is at index 0. Lets a bench walk a
     * result vector with the same nested loops it uses for printing:
     *
     *   results[spec.index({{Axis::Pec, pi}, {Axis::Scheme, si}})]
     */
    std::size_t
    index(std::initializer_list<std::pair<Axis, std::size_t>> at) const;

    /**
     * Fatal unless every axis is non-empty and repeats no value, every
     * workload is a Table-3 name, requests > 0 and every point's drive,
     * pointConfig(point, base), passes SsdConfig::validate(). Values
     * compare as report columns, so aliases ("fifo", "fifo-log") repeat
     * too: a repeat would be a second row under one journal key.
     * SweepRunner::run and configOf() call it, so an ill-formed grid
     * fails before hours of simulation and before a journal is opened.
     */
    void validate() const;
};

/**
 * One axis of the table. Its typed values live in a SweepSpec vector and
 * a SimPoint field; the accessors erase that type, so serializers, CLI
 * and diff treat every axis alike. A value crosses the erasure as its
 * report column, a Json: an enum as its canonical name
 * (common/names.hh), a number as itself. Only the workload axis holds
 * free-form strings.
 */
struct SweepAxis
{
    Axis id;
    std::string specKey;  //!< spec block key; flag() derives from it
    std::string column;   //!< report column key
    bool optional;        //!< left out of reports at its default
    std::string help;     //!< run_sweep --help text
    std::vector<std::string> presets;  //!< value lists the flag names

    std::function<std::size_t(const SweepSpec &)> size;
    /** Set the point's field to the spec's i-th value. */
    std::function<void(const SweepSpec &, std::size_t i, SimPoint &)>
        assign;
    /** The point's value as its report column. */
    std::function<Json(const SimPoint &)> get;
    /** Inverse of get(). */
    std::function<void(const Json &, SimPoint &)> set;
    /**
     * Set the spec's values from a comma list or a preset name, as the
     * run_sweep flag does; fatal on a malformed number (naming flag())
     * or an unknown enum name (listing the valid ones). validate()
     * checks workload names and repeats.
     */
    std::function<void(const std::string &list, SweepSpec &)> parse;

    /** "--" + specKey with '_' as '-', e.g. --misprediction-rates. */
    std::string flag() const;

    Json defaultValue() const { return get(SimPoint{}); }

    /** Do reports leave this column out when it holds @p value? */
    bool
    omitted(const Json &value) const
    {
        return optional && value == defaultValue();
    }
};

/** The axis table, in report column order. */
const std::vector<SweepAxis> &sweepAxes();

/**
 * Thread count for sweeps: the AERO_SWEEP_THREADS env when set (fatal if
 * malformed or zero), else std::thread::hardware_concurrency().
 */
int sweepThreads();

class SweepRunner
{
  public:
    /** Called after each point completes (serialized by the runner). */
    using Progress = std::function<void(
        std::size_t done, std::size_t total, const SimResult &latest)>;

    /** @param threads  pool size; 0 means sweepThreads(). */
    explicit SweepRunner(int threads = 0);

    int threads() const { return poolSize; }

    /**
     * Expand and run a spec; results in expand() order, bit-identical
     * at any thread count. With a journal in @p scope, every point is
     * journaled under `scope.key("point", toJson(point))` as it
     * completes, and points already journaled are decoded instead of
     * re-simulated, so a killed sweep resumes where it stopped under
     * any thread count. @p progress sees only the points simulated
     * here; its `total` counts the points not yet journaled when the
     * run starts.
     */
    std::vector<SimResult> run(const SweepSpec &spec,
                               CampaignScope scope = {},
                               const Progress &progress = {}) const;

  private:
    int poolSize;
};

/** Progress callback printing "done/total" lines to stderr. */
SweepRunner::Progress stderrProgress();

} // namespace aero

// parallelMap(items, fn, threads = 0): run fn over items on a thread
// pool, results in input order — the generic engine under SweepRunner,
// reusable for any independent per-item experiment (e.g. one
// LifetimeTester run per scheme). Lives in its own self-contained header
// so low-level TUs can use it without the sweep machinery.
#include "exp/sweep_impl.hh"

#endif // AERO_EXP_SWEEP_HH
