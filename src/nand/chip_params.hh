/**
 * @file
 * Per-chip-type parameter sets for the NAND erase-physics model.
 *
 * The model works in *slots* of tSlot = 0.5 ms at an ISPE voltage level L;
 * the canonical ISPE schedule spends slotsPerLoop = 7 slots per loop and
 * raises the level by one every loop (the paper's dVISPE step). Every
 * quantity the paper measures on real chips (Figs. 4 and 7-11) is derived
 * from these parameters; see DESIGN.md section 5 for the calibration
 * rationale and tests/test_calibration.cpp for the locked-in tolerance
 * bands.
 */

#ifndef AERO_NAND_CHIP_PARAMS_HH
#define AERO_NAND_CHIP_PARAMS_HH

#include <array>
#include <cmath>
#include <string>

#include "common/interp.hh"
#include "common/types.hh"

namespace aero
{

enum class ChipType
{
    Tlc3d48L,   //!< 48-layer 3D TLC (the paper's main 160-chip population)
    Tlc2d,      //!< 2x-nm 2D TLC (Fig. 11)
    Mlc3d48L,   //!< 48-layer 3D MLC (Fig. 11)
};

const char *chipTypeName(ChipType t);

struct ChipParams
{
    ChipType type = ChipType::Tlc3d48L;
    std::string name = "3D TLC (48L)";

    /** @name ISPE timing */
    /** @{ */
    Tick tSlot = msToTicks(0.5);    //!< EP granularity (m-ISPE step)
    int slotsPerLoop = 7;           //!< default tEP = 7 slots = 3.5 ms
    Tick tVr = msToTicks(0.1);      //!< verify-read latency
    Tick tRead = 40 * kUs;          //!< page read (tR)
    Tick tProg = 350 * kUs;         //!< page program (tPROG)
    int maxLoops = 10;              //!< hard cap incl. escalations
    int maxLevel = 12;              //!< highest V_ERASE step the chip has
    int nominalMaxNIspe = 5;        //!< max loops seen in characterization
    /** @} */

    /** @name Fail-bit model (Fig. 7): F = gamma + delta * remaining slots */
    /** @{ */
    double gamma = 500.0;           //!< residual floor at 0.5 ms remaining
    double delta = 5000.0;          //!< fail bits removed per 0.5 ms slot
    double fPass = 100.0;           //!< ISPE pass threshold F_PASS
    double failNoiseSigma = 0.05;   //!< multiplicative readout noise
    /** @} */

    /** @name Erase-requirement model (Fig. 4) */
    /** @{ */
    /** Equivalent-PEC -> mean required slots. */
    PiecewiseLinear anchorSlots;
    /** Equivalent-PEC -> log-normal sigma of the frozen block pv factor. */
    PiecewiseLinear pvAmp;
    /**
     * Process variation is bounded in real silicon: block z-scores are
     * truncated to +/- pvZCap (otherwise log-normal tails manufacture
     * blocks needing loop counts the paper's 19200-block study never
     * observed, and their runaway wear distorts population averages).
     */
    double pvZCap = 2.0;
    double chipPvSigma = 0.04;      //!< chip-to-chip variation
    double eraseNoiseSigma = 0.05;  //!< per-erase-operation jitter
    /** @} */

    /** @name Pulse-progress physics (DESIGN.md section 5) */
    /** @{ */
    /**
     * Fraction of the ideal over-level boost realised when a pulse runs at
     * a higher level than the canonical schedule position calls for.
     * < 1 for 3D chips: skipping preamble loops (i-ISPE) falls short more
     * often, the paper's key observation about 3D flash.
     */
    double preambleEff = 0.96;
    /**
     * Probability, per skipped preamble level, that an over-leveled pulse
     * leaves a residue of lagging wordlines (3D cell-physics variability;
     * near zero on 2D chips where loop-skipping works as designed). The
     * residue is independent of voltage headroom -- deep outlier cells
     * need the staircase's dwell time, not just a higher final voltage --
     * which is what makes i-ISPE fail persistently on 3D flash and pay
     * for a full extra loop at an escalated V_ERASE each time.
     */
    double skipFailPerLevel = 0.18;
    double skipFailCap = 0.5;
    /** Escalated retries mostly reach the lagging wordlines; the risk of
     *  lagging again is scaled down by this factor on retry pulses. */
    double skipFailRetryFactor = 0.35;
    /** Lagging-wordline residue left by a failed skip, in slots. */
    double skipFailResidLo = 0.3;
    double skipFailResidHi = 1.5;
    /** Per-level efficiency of under-leveled pulses (shallow probes). */
    double underEff = 0.25;
    /** @} */

    /** @name Damage model */
    /** @{ */
    double kV = 0.12;               //!< relative voltage step per level
    double qDmg = 10.0;             //!< damage exponent in (V/V0)^qDmg
    /** @} */

    /**
     * @name RBER model (Figs. 10 and 13), 1-year retention at 30 C
     *
     * The base curve is linear in equivalent PEC. Linearity is load-
     * bearing: it makes the population-average M_RBER equal the curve at
     * the population-average wear, so the Baseline average crosses the
     * 63-bit requirement at rber0 + rberCoeff*pec/1000 = 63 (~5.3K PEC,
     * Fig. 13) regardless of how much process variation disperses
     * individual blocks.
     */
    /** @{ */
    double rber0 = 16.0;            //!< fresh complete-erase max RBER
    double rberCoeff = 9.75;        //!< growth per 1K equivalent PEC
    double rberExp = 1.0;           //!< growth exponent
    /** Extra max-RBER per leftover slot of incomplete erasure... */
    double residualPerDelta = 18.0;
    /** ...with sublinear shape (only near-threshold bitlines err)... */
    double residualShape = 0.75;
    /** ...after an offset absorbed by data randomization: cells within
     *  ~a slot of the verify level mostly land in higher V_TH states
     *  when programmed (87.5% in TLC), so they cause no bit errors. */
    double residualOffset = 1.15;
    /** Deep leftovers blow up quadratically: far-from-erased cells sit
     *  squarely in wrong V_TH states and randomization cannot save them
     *  (an unerased block must never look usable). */
    double residualQuad = 25.0;
    double residualQuadOnset = 1.2;  //!< in excess slots
    /** @} */

    /** @name DPES comparison-scheme parameters */
    /** @{ */
    double dpesStressFactor = 0.50; //!< erase-damage scale while active
    double dpesExtraRber = 5.0;     //!< V_TH-window squeeze penalty
    double dpesMaxPec = 3000.0;     //!< applicable until 3K PEC
    /** PEC -> tPROG multiplier while DPES is active (10-30 %). */
    PiecewiseLinear dpesTProgFactor;
    /** @} */

    /**
     * @name pow() tables
     * tabulate() fills them with the very std::pow expressions the
     * accessors fall back to, so a tabulated value is bit-identical.
     * WearModel tabulates its own copy, which never changes after, and
     * every NandChip copies that one. A copy that changes kV, qDmg or
     * underEff must tabulate() again.
     */
    /** @{ */
    static constexpr int kTabulatedLevels = 16;
    bool tabulated = false;
    std::array<double, kTabulatedLevels> dmgTable{};
    std::array<double, kTabulatedLevels> underEffTable{};
    /** @} */

    /** Damage contributed by one 0.5-ms slot at ISPE level L (level>=1). */
    double
    dmgPerSlot(int level) const
    {
        if (tabulated && level >= 0 && level < kTabulatedLevels)
            return dmgTable[static_cast<std::size_t>(level)];
        return std::pow(1.0 + kV * static_cast<double>(level - 1), qDmg);
    }

    /** underEff^k: progress per slot of a pulse k levels under schedule. */
    double
    underEffPow(int k) const
    {
        if (tabulated && k >= 0 && k < kTabulatedLevels)
            return underEffTable[static_cast<std::size_t>(k)];
        return std::pow(underEff, static_cast<double>(k));
    }

    /** Fill the pow() tables from the current fields. */
    void
    tabulate()
    {
        tabulated = false;
        for (int i = 0; i < kTabulatedLevels; ++i) {
            dmgTable[static_cast<std::size_t>(i)] = dmgPerSlot(i);
            underEffTable[static_cast<std::size_t>(i)] = underEffPow(i);
        }
        tabulated = true;
    }

    /** Default erase-pulse time in ticks (the fixed tEP of ISPE). */
    Tick defaultTep() const { return tSlot * slotsPerLoop; }

    /** Duration of one full default erase loop (EP + VR). */
    Tick loopLatency() const { return defaultTep() + tVr; }

    /** Canonical schedule level for (0-based) slot position p. */
    int
    scheduleLevel(double progress) const
    {
        const auto lvl = 1 + static_cast<int>(progress /
                                              static_cast<double>(slotsPerLoop));
        return lvl;
    }

    /** Factory presets calibrated against the paper's figures. */
    static ChipParams tlc3d();
    static ChipParams tlc2d();
    static ChipParams mlc3d();
    static ChipParams forType(ChipType t);
};

} // namespace aero

#endif // AERO_NAND_CHIP_PARAMS_HH
