/**
 * @file
 * Declarative experiment sweeps over the system-level simulator.
 *
 * The paper's evaluation is one big grid — 11 Table-3 workloads x 5 erase
 * schemes x 3 PEC points (x seeds x suspension modes x sensitivity
 * overrides). SweepSpec declares such a grid once; expand() flattens it to
 * an ordered vector of SimPoints with a fixed axis nesting (outermost to
 * innermost):
 *
 *   PEC > suspension > workload > scheme > misprediction > RBER
 *       > GC policy > wear leveling > SLO policy > seed
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
#include <string>
#include <vector>

#include "devchar/simstudy.hh"
#include "exp/campaign.hh"
#include "ssd/config.hh"

namespace aero
{

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
    std::vector<std::string> gcPolicies = {"greedy"};
    std::vector<std::string> wearLevels = {"none"};
    std::vector<std::string> sloPolicies = {"none"};
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
     * Flat index of the point at the given per-axis indices, matching
     * expand() order. Lets a bench walk a result vector with the same
     * nested loops it uses for printing.
     */
    std::size_t index(std::size_t pec, std::size_t susp, std::size_t wl,
                      std::size_t scheme, std::size_t mis, std::size_t rber,
                      std::size_t seed, std::size_t gc = 0,
                      std::size_t wear = 0, std::size_t slo = 0) const;
};

/**
 * Fluent builder for SweepSpec. Singular setters collapse an axis to one
 * value; plural setters sweep it. build() validates every axis (non-empty,
 * known workload names) so a bad grid fails before hours of simulation.
 *
 *   const SweepSpec spec = SweepBuilder()
 *                              .allTable3Workloads()
 *                              .allSchemes()
 *                              .paperPecs()
 *                              .repeats(3)
 *                              .requests(defaultSimRequests())
 *                              .build();
 */
class SweepBuilder
{
  public:
    SweepBuilder &workload(const std::string &name);
    SweepBuilder &workloads(const std::vector<std::string> &names);
    SweepBuilder &allTable3Workloads();

    SweepBuilder &scheme(SchemeKind kind);
    SweepBuilder &schemes(const std::vector<SchemeKind> &kinds);
    /** Scheme names resolved via the EraseSchemeRegistry. */
    SweepBuilder &schemeNames(const std::vector<std::string> &names);
    /** All five schemes in the paper's comparison order. */
    SweepBuilder &allSchemes();

    SweepBuilder &pec(double pec);
    SweepBuilder &pecs(const std::vector<double> &pecs);
    /** The 0.5K / 2.5K / 4.5K conditioning points of section 7. */
    SweepBuilder &paperPecs();

    SweepBuilder &suspension(SuspensionMode mode);
    SweepBuilder &suspensions(const std::vector<SuspensionMode> &modes);

    SweepBuilder &mispredictionRate(double rate);
    SweepBuilder &mispredictionRates(const std::vector<double> &rates);

    SweepBuilder &rberRequirement(int bits);
    SweepBuilder &rberRequirements(const std::vector<int> &bits);

    /** GC victim-selection policy names (ssd/gc.hh registry). */
    SweepBuilder &gcPolicy(const std::string &name);
    SweepBuilder &gcPolicies(const std::vector<std::string> &names);

    /** Wear-leveling policy names (ssd/wear_level.hh registry). */
    SweepBuilder &wearLevel(const std::string &name);
    SweepBuilder &wearLevels(const std::vector<std::string> &names);

    /** SLO enforcement policy names (ssd/config.hh SloPolicy). */
    SweepBuilder &sloPolicy(const std::string &name);
    SweepBuilder &sloPolicies(const std::vector<std::string> &names);

    SweepBuilder &seed(std::uint64_t seed);
    SweepBuilder &seeds(const std::vector<std::uint64_t> &seeds);
    /** n seeds base, base+stride, ... (the benches' repeat idiom). */
    SweepBuilder &repeats(int n, std::uint64_t base = 7,
                          std::uint64_t stride = 1000);

    SweepBuilder &requests(std::uint64_t n);
    SweepBuilder &baseConfig(const SsdConfig &cfg);

    /** Validate and return the spec (fatal on an ill-formed grid). */
    SweepSpec build() const;

  private:
    SweepSpec spec;
};

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
     * any thread or worker count. A forked worker (claims armed) skips
     * points a live sibling owns and leaves their slots
     * default-constructed (see parallelMapJournaled). @p progress sees
     * only the points simulated here; its `total` counts the points not
     * yet journaled when the run starts.
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
