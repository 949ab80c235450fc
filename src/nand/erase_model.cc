#include "nand/erase_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace aero
{

double
sampleRequirement(const ChipParams &params, double peq, double pv_z,
                  double chip_pv, Rng &rng)
{
    const double mean = params.anchorSlots(peq);
    const double amp = params.pvAmp(peq);
    // exp(z*amp - amp^2/2) keeps the population mean at `mean` while the
    // frozen (truncated) z-score makes a block consistently easy or hard
    // to erase.
    const double z = std::clamp(pv_z, -params.pvZCap, params.pvZCap);
    const double pv_block = std::exp(z * amp - 0.5 * amp * amp);
    const double jitter = rng.lognormFactor(params.eraseNoiseSigma);
    const double r = mean * pv_block * chip_pv * jitter;
    // A requirement past the chip's loop budget cannot occur on a healthy
    // block; clamp so the fixed-latency schemes always terminate complete.
    const double cap =
        static_cast<double>(params.maxLoops * params.slotsPerLoop - 1);
    return std::clamp(r, 1.0, cap);
}

double
advancePerSlot(const ChipParams &params, double progress, int level)
{
    AERO_CHECK(level >= 1, "erase level must be >= 1");
    const int needed = params.scheduleLevel(progress);
    if (level >= needed)
        return 1.0;
    return params.underEffPow(needed - level);
}

double
pulseJumpDepth(const ChipParams &params, int level)
{
    return params.preambleEff *
           static_cast<double>(params.slotsPerLoop * (level - 1));
}

void
applyPulse(const ChipParams &params, EraseOpState &op, int level, int slots,
           double stress_scale, double jump_scale)
{
    AERO_CHECK(op.active, "pulse on idle block");
    AERO_CHECK(slots >= 1, "pulse must apply at least one slot");
    // Voltage dominance: the pulse immediately reaches the (discounted)
    // depth of the canonical preamble for its level.
    op.progress = std::max(op.progress,
                           pulseJumpDepth(params, level) * jump_scale);
    const double dmg_slot = params.dmgPerSlot(level) * stress_scale;
    for (int s = 0; s < slots; ++s) {
        // Advance slot by slot: the needed level can change mid-pulse.
        if (op.progress < op.requirement)
            op.progress += advancePerSlot(params, op.progress, level);
        op.damage += dmg_slot;
    }
    op.slotsApplied += slots;
    op.pulses += 1;
    op.maxLevel = std::max(op.maxLevel, level);
}

double
expectedFailBits(const ChipParams &params, double remaining)
{
    // Fig. 7's relation: the fail-bit count sits at the gamma floor when
    // half a millisecond of erasure remains and climbs by delta per
    // additional slot. F <= gamma therefore predicts "one slot left".
    if (remaining <= 0.0)
        return 0.0;
    return params.gamma +
           params.delta * std::max(0.0, remaining - 1.0);
}

double
remainingSlotsFor(const ChipParams &params, double fail_bits)
{
    return std::max(
        0.0, 1.0 + (fail_bits - params.gamma) / params.delta);
}

double
failBits(const ChipParams &params, const EraseOpState &op, Rng &rng)
{
    AERO_CHECK(op.active, "verify-read on idle block");
    const double remaining = op.requirement - op.progress;
    if (remaining <= 0.0) {
        // Completely erased: a handful of noisy bitlines well below F_PASS.
        return rng.uniform(0.0, params.fPass * 0.8);
    }
    const double f = expectedFailBits(params, remaining);
    return f * rng.lognormFactor(params.failNoiseSigma);
}

int
nIspeFor(const ChipParams &params, double requirement)
{
    const double r = std::max(1.0, requirement);
    return static_cast<int>(
        std::ceil(r / static_cast<double>(params.slotsPerLoop)));
}

int
finalLoopSlotsFor(const ChipParams &params, double requirement)
{
    const int n = nIspeFor(params, requirement);
    const double in_final =
        requirement - static_cast<double>((n - 1) * params.slotsPerLoop);
    return std::max(1, static_cast<int>(std::ceil(in_final)));
}

double
baselineEraseDamage(const ChipParams &params, double mean_slots)
{
    const int n = nIspeFor(params, mean_slots);
    double dmg = 0.0;
    for (int i = 1; i <= n; ++i)
        dmg += static_cast<double>(params.slotsPerLoop) * params.dmgPerSlot(i);
    return dmg;
}

} // namespace aero
