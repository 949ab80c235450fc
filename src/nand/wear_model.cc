#include "nand/wear_model.hh"

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "nand/erase_model.hh"

namespace aero
{

namespace
{

constexpr double kGridMaxPec = 20000.0;
constexpr double kGridStep = 50.0;
constexpr int kPvNodes = 33;

} // namespace

WearModel::WearModel(const ChipParams &params) : chip(params)
{
    chip.tabulate();
    // Integrate the *population-averaged* Baseline damage-per-erase curve
    // on a grid. The average must be taken over the process-variation
    // distribution: damage is convex in the requirement (hard blocks need
    // extra loops at exponentially higher stress), so damage-at-mean-R
    // would systematically understate wear and break the peq = pec
    // identity along the Baseline trajectory.
    std::vector<std::pair<double, double>> knots;
    double acc = 0.0;
    knots.emplace_back(0.0, 0.0);
    for (double p = 0.0; p < kGridMaxPec; p += kGridStep) {
        const double mid = p + kGridStep / 2.0;
        acc += baselineDamagePerErase(mid) * kGridStep;
        knots.emplace_back(p + kGridStep, acc);
    }
    cum = PiecewiseLinear(std::move(knots));
}

std::shared_ptr<const WearModel>
WearModel::forType(ChipType type)
{
    // Function-local statics: each is built once, on first use, even when
    // threads race here. The table is immutable after that.
    const auto build = [](ChipType t) {
        return std::make_shared<const WearModel>(ChipParams::forType(t));
    };
    switch (type) {
      case ChipType::Tlc3d48L: {
        static const auto model = build(type);
        return model;
      }
      case ChipType::Tlc2d: {
        static const auto model = build(type);
        return model;
      }
      case ChipType::Mlc3d48L: {
        static const auto model = build(type);
        return model;
      }
    }
    AERO_PANIC("unknown chip type ", static_cast<int>(type));
}

double
WearModel::baselineDamagePerErase(double pec) const
{
    static const std::vector<double> nodes =
        normalQuadratureNodes(kPvNodes);
    const double mean = chip.anchorSlots(pec);
    const double amp = chip.pvAmp(pec);
    double dmg = 0.0;
    for (const double node : nodes) {
        // Same truncated-variation model as sampleRequirement().
        const double z = std::clamp(node, -chip.pvZCap, chip.pvZCap);
        const double r = mean * std::exp(z * amp - 0.5 * amp * amp);
        dmg += baselineEraseDamage(chip, r);
    }
    return dmg / static_cast<double>(nodes.size());
}

double
WearModel::baselineCumDamage(double pec) const
{
    if (pec <= 0.0)
        return 0.0;
    return cum(pec);
}

double
WearModel::equivalentPec(double wear) const
{
    if (wear <= 0.0)
        return 0.0;
    return cum.inverse(wear);
}

double
WearModel::rberBase(double peq) const
{
    if (peq <= 0.0)
        return chip.rber0;
    return chip.rber0 +
           chip.rberCoeff * std::pow(peq / 1000.0, chip.rberExp);
}

double
WearModel::residualRber(double leftover_slots) const
{
    // The final ~slot of "leftover" corresponds to the fail-bit gamma
    // floor: cells so close to the verify level that data randomization
    // absorbs nearly all of them. Residual errors come from the excess.
    const double excess = leftover_slots - chip.residualOffset;
    if (excess <= 0.0)
        return 0.0;
    double r = chip.residualPerDelta * std::pow(excess, chip.residualShape);
    const double deep = excess - chip.residualQuadOnset;
    if (deep > 0.0)
        r += chip.residualQuad * deep * deep;
    return r;
}

double
WearModel::leftoverForResidual(double budget) const
{
    if (budget <= 0.0)
        return chip.residualOffset;
    double lo = chip.residualOffset;
    double hi = lo + 16.0;
    for (int i = 0; i < 48; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (residualRber(mid) <= budget)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

double
WearModel::maxRber(double wear, double leftover_slots) const
{
    return rberBase(equivalentPec(wear)) + residualRber(leftover_slots);
}

double
WearModel::predictedBaseRber(double pec) const
{
    return rberBase(pec);
}

} // namespace aero
