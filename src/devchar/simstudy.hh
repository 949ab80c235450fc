/**
 * @file
 * System-level simulation study driver for the paper's Figs. 14/15 and
 * Table 4: runs the simulated SSD over a (workload, scheme, PEC,
 * suspension-mode) grid and collects the latency/throughput statistics
 * the paper reports. Request counts scale via AERO_SIM_REQUESTS so CI
 * runs stay fast while full runs use more samples for stabler tails.
 */

#ifndef AERO_DEVCHAR_SIMSTUDY_HH
#define AERO_DEVCHAR_SIMSTUDY_HH

#include <string>
#include <vector>

#include "exp/record.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace aero
{

struct SimPoint
{
    std::string workload = "prxy";
    SchemeKind scheme = SchemeKind::Baseline;
    double pec = 500.0;
    SuspensionMode suspension = SuspensionMode::MidSegment;
    double mispredictionRate = 0.0;
    int rberRequirement = 63;
    GcPolicy gcPolicy = GcPolicy::Greedy;
    WearLevel wearLevel = WearLevel::None;
    std::uint64_t requests = 120000;
    std::uint64_t seed = 7;

    /**
     * The key columns, from the sweep axis table (exp/sweep.hh): every
     * axis in table order, "requests" just before "seed", and an
     * optional axis written only off its default.
     */
    static const Fields<SimPoint> &fields();
};

struct SimResult
{
    SimPoint point;
    double avgReadUs = 0.0;
    double avgWriteUs = 0.0;
    double iops = 0.0;
    double p999Us = 0.0;
    double p9999Us = 0.0;
    double p999999Us = 0.0;
    std::uint64_t erases = 0;
    double avgEraseMs = 0.0;
    std::uint64_t suspensions = 0;
    double writeAmplification = 0.0;

    /** The point's columns, then the metrics (exp/report.cc). */
    static const Fields<SimResult> &fields();
};

/**
 * The drive a grid point runs on: @p base with the point's axes (scheme,
 * PEC, suspension, scheme options, GC, WL, seed) written over it; the
 * rest of @p base, SLO policy and budgets included, stays as given. runSimPoint() simulates this drive and SweepSpec::validate()
 * checks it, so a sweep and its run cannot disagree about a point.
 */
SsdConfig pointConfig(const SimPoint &point, const SsdConfig &base);

/** Run one grid point on the bench-scale SSD. */
SimResult runSimPoint(const SimPoint &point);

/** Run one grid point on pointConfig(point, base). */
SimResult runSimPoint(const SimPoint &point, const SsdConfig &base);

/** Default request count, overridable via the AERO_SIM_REQUESTS env. */
std::uint64_t defaultSimRequests(std::uint64_t fallback = 120000);

/** The five schemes in the paper's comparison order. */
const std::vector<SchemeKind> &allSchemes();

/** The three conditioning points of section 7 (0.5K / 2.5K / 4.5K). */
const std::vector<double> &paperPecPoints();

} // namespace aero

#endif // AERO_DEVCHAR_SIMSTUDY_HH
