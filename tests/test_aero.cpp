/**
 * @file
 * Unit tests for the paper's core contribution: the EPT (Table 1), FELP,
 * the SEF bitmap, the AERO erase scheme, and the EPT builder.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/aero_scheme.hh"
#include "core/ept.hh"
#include "core/ept_builder.hh"
#include "core/felp.hh"
#include "core/sef.hh"
#include "erase/baseline_ispe.hh"
#include "nand/erase_model.hh"

namespace aero
{
namespace
{

NandChip
makeChip(std::uint64_t seed = 1)
{
    return NandChip(ChipParams::tlc3d(), ChipGeometry{1, 16, 16}, seed);
}

TEST(Ept, RangeIndexBoundaries)
{
    const auto p = ChipParams::tlc3d();
    EXPECT_EQ(Ept::rangeIndex(p, 0.0), 0);
    EXPECT_EQ(Ept::rangeIndex(p, p.gamma), 0);
    EXPECT_EQ(Ept::rangeIndex(p, p.gamma + 1.0), 1);
    EXPECT_EQ(Ept::rangeIndex(p, p.gamma + p.delta), 1);
    EXPECT_EQ(Ept::rangeIndex(p, p.gamma + 3.5 * p.delta), 4);
    EXPECT_EQ(Ept::rangeIndex(p, p.gamma + 7.0 * p.delta), 7);
    EXPECT_EQ(Ept::rangeIndex(p, p.gamma + 7.1 * p.delta), 8);
}

TEST(Ept, CanonicalMatchesTable1)
{
    const auto p = ChipParams::tlc3d();
    const auto t = Ept::canonical(p);
    // Spot-check the paper's Table 1 (values in 0.5-ms slots).
    EXPECT_EQ(t.consSlots(1, 0), 1);   // N=1, <=g: 0.5 ms
    EXPECT_EQ(t.consSlots(1, 4), 5);   // N=1, <=4d: 2.5 ms (cap)
    EXPECT_EQ(t.consSlots(1, 7), 5);   // N=1, <=7d: 2.5 ms
    EXPECT_EQ(t.consSlots(2, 1), 2);   // N=2, <=d: 1.0 ms
    EXPECT_EQ(t.consSlots(2, 6), 7);   // N=2, <=6d: 3.5 ms
    EXPECT_EQ(t.aggrSlots(2, 0), 0);   // N=2, <=g: skip
    EXPECT_EQ(t.aggrSlots(4, 0), 0);   // N=4, <=g: skip
    EXPECT_EQ(t.aggrSlots(4, 1), 1);   // N=4, <=d: 0.5 ms
    EXPECT_EQ(t.aggrSlots(5, 0), 1);   // N=5: no margin spending
    EXPECT_EQ(t.aggrSlots(5, 3), t.consSlots(5, 3));
    // Rows past the table clamp to row 5.
    EXPECT_EQ(t.consSlots(9, 3), t.consSlots(5, 3));
}

TEST(Ept, AggressiveNeverExceedsConservative)
{
    const auto t = Ept::canonical(ChipParams::tlc3d());
    for (int row = 1; row <= Ept::kRows; ++row) {
        for (int rg = 0; rg < Ept::kRanges; ++rg)
            EXPECT_LE(t.aggrSlots(row, rg), t.consSlots(row, rg));
    }
}

TEST(Ept, ToStringContainsHeader)
{
    const auto p = ChipParams::tlc3d();
    const auto s = Ept::canonical(p).toString(p);
    EXPECT_NE(s.find("EPT"), std::string::npos);
    EXPECT_NE(s.find("<=g"), std::string::npos);
}

TEST(Sef, DefaultsToTrueAndTracks)
{
    SefBitmap sef(130);
    EXPECT_EQ(sef.size(), 130u);
    EXPECT_EQ(sef.popcount(), 130u);
    for (BlockId b = 0; b < 130; ++b)
        EXPECT_TRUE(sef.get(b));
    sef.set(5, false);
    sef.set(129, false);
    EXPECT_FALSE(sef.get(5));
    EXPECT_FALSE(sef.get(129));
    EXPECT_TRUE(sef.get(6));
    EXPECT_EQ(sef.popcount(), 128u);
    sef.set(5, true);
    EXPECT_TRUE(sef.get(5));
    EXPECT_EQ(sef.storageBytes(), 24u);  // 130 bits -> 3 words
}

TEST(Felp, ConservativePredictionIsExactFit)
{
    const auto p = ChipParams::tlc3d();
    WearModel wear(p);
    Felp felp(p, wear, Ept::canonical(p),
              FelpConfig{false, 12.0, 63});
    // F for `rem` slots remaining predicts exactly `rem` slots.
    for (const double rem : {1.0, 2.0, 4.0, 6.0}) {
        const auto pred =
            felp.predict(2, expectedFailBits(p, rem), 2000.0);
        EXPECT_EQ(pred.slots, static_cast<int>(rem)) << "rem=" << rem;
        EXPECT_DOUBLE_EQ(pred.allowedLeftover, 0.0);
    }
}

TEST(Felp, NoReductionAboveFHigh)
{
    const auto p = ChipParams::tlc3d();
    WearModel wear(p);
    Felp felp(p, wear, Ept::canonical(p), FelpConfig{true, 12.0, 63});
    const auto pred =
        felp.predict(2, p.gamma + 8.0 * p.delta, 1000.0);
    EXPECT_EQ(pred.slots, p.slotsPerLoop);
    EXPECT_FALSE(pred.reduced);
    EXPECT_EQ(pred.range, 8);
}

TEST(Felp, MarginShrinksWithPec)
{
    const auto p = ChipParams::tlc3d();
    WearModel wear(p);
    Felp felp(p, wear, Ept::canonical(p), FelpConfig{true, 12.0, 63});
    const double young = felp.allowedLeftoverSlots(0.0);
    const double old_margin = felp.allowedLeftoverSlots(5000.0);
    EXPECT_GT(young, 1.5);
    EXPECT_LT(old_margin, young);
    EXPECT_DOUBLE_EQ(felp.allowedLeftoverSlots(20000.0), 0.0);
}

TEST(Felp, AggressiveSpendsMarginAtLowPecOnly)
{
    const auto p = ChipParams::tlc3d();
    WearModel wear(p);
    Felp felp(p, wear, Ept::canonical(p), FelpConfig{true, 12.0, 63});
    const double f = expectedFailBits(p, 2.0);  // range <=d
    const auto young = felp.predict(2, f, 500.0);
    const auto old_pred = felp.predict(2, f, 5200.0);
    EXPECT_LT(young.slots, old_pred.slots);
    EXPECT_GT(young.allowedLeftover, 0.0);
    EXPECT_EQ(old_pred.slots, 2);  // falls back to conservative
}

TEST(Felp, MemoizedLeftoverMatchesDirectComputation)
{
    const auto p = ChipParams::tlc3d();
    const WearModel wear(p);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    // Integer and fractional PECs; pec and pec + 16 share a memo slot.
    std::vector<double> pecs;
    for (double pec = 0.0; pec <= 6000.0; pec += 375.0) {
        for (const double d : {0.0, 0.25, 0.5, 1.0, 16.0, 16.5})
            pecs.push_back(pec + d);
    }
    for (const bool use_margin : {true, false}) {
        const FelpConfig cfg{use_margin, 12.0, 63};
        Felp felp(p, wear, Ept::canonical(p), cfg);
        // FELP's margin rule evaluated on the wear model, with no memo.
        const auto direct = [&](double pec) {
            if (!use_margin)
                return 0.0;
            const double margin = cfg.rberRequirement - cfg.marginPad -
                                  wear.predictedBaseRber(pec);
            return margin <= 0.0 ? 0.0 : wear.leftoverForResidual(margin);
        };
        // Forward, then backward: the second pass mixes hits with
        // evictions by slot collisions.
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < pecs.size(); ++i) {
                const double pec =
                    pecs[pass == 0 ? i : pecs.size() - 1 - i];
                EXPECT_EQ(bits(felp.allowedLeftoverSlots(pec)),
                          bits(direct(pec)))
                    << "pec " << pec << " margin " << use_margin;
                EXPECT_EQ(bits(felp.allowedLeftoverSlots(pec)),
                          bits(direct(pec)))
                    << "repeat at pec " << pec;
            }
        }
    }
}

TEST(Felp, WeakerEccReducesAggression)
{
    const auto p = ChipParams::tlc3d();
    WearModel wear(p);
    Felp strong(p, wear, Ept::canonical(p), FelpConfig{true, 12.0, 63});
    Felp weak(p, wear, Ept::canonical(p), FelpConfig{true, 12.0, 40});
    EXPECT_LT(weak.allowedLeftoverSlots(1000.0),
              strong.allowedLeftoverSlots(1000.0));
}

TEST(AeroScheme, CompletesFreshBlockWithShallowErasure)
{
    auto chip = makeChip();
    AeroScheme aero(chip, SchemeOptions{}, false,
                    Ept::canonical(chip.params()));
    const auto out = eraseNow(aero, 0);
    EXPECT_TRUE(out.usedShallow);
    EXPECT_TRUE(out.complete);
    EXPECT_EQ(aero.stats().shallowProbes, 1u);
    // Shallow + remainder must beat the default loop for easy blocks.
    EXPECT_LE(out.slotsApplied, chip.params().slotsPerLoop + 1);
}

TEST(AeroScheme, ConsIsAlwaysPhysicallyComplete)
{
    auto chip = makeChip(3);
    for (int b = 0; b < chip.numBlocks(); ++b)
        chip.ageBaseline(b, 2500);
    AeroScheme cons(chip, SchemeOptions{}, false,
                    Ept::canonical(chip.params()));
    for (int round = 0; round < 10; ++round) {
        for (int b = 0; b < chip.numBlocks(); ++b) {
            const auto out = eraseNow(cons, b);
            EXPECT_TRUE(out.complete);
            EXPECT_FALSE(out.acceptedIncomplete);
        }
    }
}

TEST(AeroScheme, AeroIsFasterThanBaseline)
{
    auto a = makeChip(5);
    auto b = makeChip(5);
    for (int blk = 0; blk < a.numBlocks(); ++blk) {
        a.ageBaseline(blk, 2500);
        b.ageBaseline(blk, 2500);
    }
    BaselineIspe base(a, SchemeOptions{});
    AeroScheme aero(b, SchemeOptions{}, true,
                    Ept::canonical(b.params()));
    Tick base_lat = 0, aero_lat = 0;
    double base_dmg = 0, aero_dmg = 0;
    for (int round = 0; round < 5; ++round) {
        for (int blk = 0; blk < a.numBlocks(); ++blk) {
            const auto ob = eraseNow(base, blk);
            const auto oa = eraseNow(aero, blk);
            base_lat += ob.latency;
            aero_lat += oa.latency;
            base_dmg += ob.damage;
            aero_dmg += oa.damage;
        }
    }
    EXPECT_LT(aero_lat, base_lat);
    EXPECT_LT(aero_dmg, base_dmg * 0.95);
}

TEST(AeroScheme, AggressiveLeftoverStaysWithinMargin)
{
    auto chip = makeChip(7);
    AeroScheme aero(chip, SchemeOptions{}, true,
                    Ept::canonical(chip.params()));
    const double requirement = 63.0;
    for (int round = 0; round < 20; ++round) {
        for (int b = 0; b < chip.numBlocks(); ++b) {
            eraseNow(aero, b);
            // Reliability invariant: max RBER never exceeds the
            // requirement while AERO spends margin at low PEC.
            EXPECT_LE(chip.maxRber(b), requirement)
                << "block " << b << " round " << round;
        }
    }
    EXPECT_GT(aero.stats().incompleteAccepts, 0u);
}

TEST(AeroScheme, SefClearsForHardBlocksAndSkipsProbe)
{
    auto chip = makeChip(9);
    for (int b = 0; b < chip.numBlocks(); ++b)
        chip.ageBaseline(b, 2500);  // multi-loop: shallow probing futile
    AeroScheme aero(chip, SchemeOptions{}, false,
                    Ept::canonical(chip.params()));
    for (int b = 0; b < chip.numBlocks(); ++b)
        eraseNow(aero, b);
    EXPECT_EQ(aero.sef().popcount(), 0u);
    const auto probes_before = aero.stats().shallowProbes;
    for (int b = 0; b < chip.numBlocks(); ++b) {
        const auto out = eraseNow(aero, b);
        EXPECT_FALSE(out.usedShallow);
    }
    EXPECT_EQ(aero.stats().shallowProbes, probes_before);
}

TEST(AeroScheme, MispredictionInjectionAddsPenalty)
{
    auto clean_chip = makeChip(11);
    SchemeOptions opts;
    AeroScheme clean(clean_chip, opts, true,
                     Ept::canonical(clean_chip.params()));
    auto noisy_chip = makeChip(11);
    opts.mispredictionRate = 1.0;  // every reduced erase pays the step
    AeroScheme noisy(noisy_chip, opts, true,
                     Ept::canonical(noisy_chip.params()));
    Tick t_clean = 0, t_noisy = 0;
    for (int b = 0; b < clean_chip.numBlocks(); ++b) {
        t_clean += eraseNow(clean, b).latency;
        t_noisy += eraseNow(noisy, b).latency;
    }
    EXPECT_GT(t_noisy, t_clean);
    EXPECT_GT(noisy.stats().injectedMispredictions, 0u);
    EXPECT_EQ(clean.stats().injectedMispredictions, 0u);
}

TEST(AeroScheme, DisabledShallowErasureFallsBackToFullFirstLoop)
{
    auto chip = makeChip(13);
    SchemeOptions opts;
    opts.shallowErasure = false;
    AeroScheme aero(chip, opts, false, Ept::canonical(chip.params()));
    const auto out = eraseNow(aero, 0);
    EXPECT_FALSE(out.usedShallow);
    EXPECT_TRUE(out.complete);
    EXPECT_GE(out.slotsApplied, chip.params().slotsPerLoop);
}

TEST(EptBuilder, BuildsTableCloseToCanonical)
{
    PopulationConfig pc;
    pc.numChips = 10;
    pc.geometry = ChipGeometry{1, 16, 8};
    pc.seed = 77;
    ChipPopulation pop(pc);
    EptBuilderConfig cfg;
    cfg.blocksPerChip = 12;
    EptBuilder builder(pop, cfg);
    const Ept built = builder.build();
    EXPECT_GT(builder.measurements(), 100u);
    const Ept canon = Ept::canonical(pop.params());
    // The built conservative column must cover the canonical one for
    // the ranges that characterization observed, within one slot.
    for (int row = 1; row <= Ept::kRows; ++row) {
        int prev = 0;
        for (int rg = 0; rg < Ept::kRanges; ++rg) {
            const int slots = built.consSlots(row, rg);
            EXPECT_GE(slots, prev);  // monotone in the fail-bit range
            prev = slots;
            EXPECT_NEAR(slots, canon.consSlots(row, rg), 1.01)
                << "row " << row << " range " << rg;
        }
    }
}

} // namespace
} // namespace aero
