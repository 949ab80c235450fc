/**
 * @file
 * Unit and property tests for the erase-pulse physics: requirement
 * sampling, canonical-schedule progress, jump depth, fail-bit readout.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "nand/erase_model.hh"
#include "nand/wear_model.hh"

namespace aero
{
namespace
{

ChipParams
params()
{
    return ChipParams::tlc3d();
}

EraseOpState
opWithRequirement(double r)
{
    EraseOpState op;
    op.active = true;
    op.requirement = r;
    return op;
}

TEST(EraseModel, RequirementGrowsWithPec)
{
    const auto p = params();
    Rng rng(5);
    double prev = 0.0;
    for (const double pec : {0.0, 1000.0, 2000.0, 3000.0, 5000.0}) {
        double sum = 0.0;
        const int n = 2000;
        for (int i = 0; i < n; ++i)
            sum += sampleRequirement(p, pec, 0.0, 1.0, rng);
        const double mean = sum / n;
        EXPECT_GT(mean, prev) << "pec=" << pec;
        EXPECT_NEAR(mean, p.anchorSlots(pec), 0.05 * p.anchorSlots(pec));
        prev = mean;
    }
}

TEST(EraseModel, RequirementRespectsLoopBudget)
{
    const auto p = params();
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
        const double r = sampleRequirement(p, 15000.0, 2.0, 1.3, rng);
        EXPECT_LE(r, p.maxLoops * p.slotsPerLoop - 1);
        EXPECT_GE(r, 1.0);
    }
}

TEST(EraseModel, HardBlocksNeedMoreThanEasyBlocks)
{
    const auto p = params();
    Rng rng(7);
    double hard = 0.0, easy = 0.0;
    for (int i = 0; i < 500; ++i) {
        hard += sampleRequirement(p, 3000.0, 1.5, 1.0, rng);
        easy += sampleRequirement(p, 3000.0, -1.5, 1.0, rng);
    }
    EXPECT_GT(hard, easy * 1.3);
}

TEST(EraseModel, BaselineLoopAdvancesExactlySevenSlots)
{
    const auto p = params();
    auto op = opWithRequirement(21.0);
    // Canonical schedule: loop i at level i moves one position per slot.
    for (int loop = 1; loop <= 3; ++loop) {
        const double before = op.progress;
        applyPulse(p, op, loop, p.slotsPerLoop);
        EXPECT_NEAR(op.progress - before, 7.0, 1e-9) << "loop " << loop;
    }
    EXPECT_GE(op.progress, op.requirement);
}

TEST(EraseModel, JumpDepthMatchesPreamble)
{
    const auto p = params();
    EXPECT_DOUBLE_EQ(pulseJumpDepth(p, 1), 0.0);
    EXPECT_DOUBLE_EQ(pulseJumpDepth(p, 3),
                     p.preambleEff * 2.0 * p.slotsPerLoop);
}

TEST(EraseModel, OverLeveledPulseInheritsPreambleDepth)
{
    const auto p = params();
    auto op = opWithRequirement(20.0);
    applyPulse(p, op, 3, p.slotsPerLoop);
    // Jump to preambleEff*14 then 7 linear slots.
    EXPECT_NEAR(op.progress, p.preambleEff * 14.0 + 7.0, 1e-9);
}

TEST(EraseModel, UnderLeveledPulseBarelyAdvances)
{
    const auto p = params();
    auto op = opWithRequirement(20.0);
    op.progress = 14.0;  // needs level 3 now
    const double before = op.progress;
    applyPulse(p, op, 1, 4);
    const double adv = op.progress - before;
    EXPECT_LT(adv, 4.0 * std::pow(p.underEff, 2) + 1e-9);
}

TEST(EraseModel, DamageGrowsSteeplyWithLevel)
{
    const auto p = params();
    EXPECT_DOUBLE_EQ(p.dmgPerSlot(1), 1.0);
    EXPECT_GT(p.dmgPerSlot(2), 2.0);
    EXPECT_GT(p.dmgPerSlot(5), 10.0 * p.dmgPerSlot(2));
}

TEST(EraseModel, StressScaleReducesDamageOnly)
{
    const auto p = params();
    auto a = opWithRequirement(10.0);
    auto b = opWithRequirement(10.0);
    applyPulse(p, a, 1, 7, 1.0);
    applyPulse(p, b, 1, 7, 0.5);
    EXPECT_DOUBLE_EQ(a.progress, b.progress);
    EXPECT_DOUBLE_EQ(b.damage, 0.5 * a.damage);
}

TEST(EraseModel, FailBitsFollowFig7Relation)
{
    const auto p = params();
    // One slot remaining reads the gamma floor; each further slot adds
    // delta (the paper's linear relation).
    EXPECT_DOUBLE_EQ(expectedFailBits(p, 1.0), p.gamma);
    EXPECT_DOUBLE_EQ(expectedFailBits(p, 2.0), p.gamma + p.delta);
    EXPECT_DOUBLE_EQ(expectedFailBits(p, 5.0), p.gamma + 4.0 * p.delta);
    EXPECT_DOUBLE_EQ(expectedFailBits(p, 0.0), 0.0);
}

TEST(EraseModel, RemainingSlotsInvertsFailBits)
{
    const auto p = params();
    for (const double rem : {1.0, 1.5, 3.0, 6.5}) {
        EXPECT_NEAR(remainingSlotsFor(p, expectedFailBits(p, rem)), rem,
                    1e-9);
    }
}

TEST(EraseModel, FailBitsPassAfterCompletion)
{
    const auto p = params();
    Rng rng(9);
    auto op = opWithRequirement(5.0);
    applyPulse(p, op, 1, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_LE(failBits(p, op, rng), p.fPass);
}

TEST(EraseModel, NIspeAndFinalLoopSlots)
{
    const auto p = params();
    EXPECT_EQ(nIspeFor(p, 1.0), 1);
    EXPECT_EQ(nIspeFor(p, 7.0), 1);
    EXPECT_EQ(nIspeFor(p, 7.5), 2);
    EXPECT_EQ(nIspeFor(p, 21.0), 3);
    EXPECT_EQ(finalLoopSlotsFor(p, 7.0), 7);
    EXPECT_EQ(finalLoopSlotsFor(p, 8.0), 1);
    EXPECT_EQ(finalLoopSlotsFor(p, 16.5), 3);
}

TEST(EraseModel, BaselineDamageSumsLoopCosts)
{
    const auto p = params();
    const double one = baselineEraseDamage(p, 5.0);
    EXPECT_DOUBLE_EQ(one, 7.0 * p.dmgPerSlot(1));
    const double three = baselineEraseDamage(p, 20.0);
    EXPECT_DOUBLE_EQ(three, 7.0 * (p.dmgPerSlot(1) + p.dmgPerSlot(2) +
                                   p.dmgPerSlot(3)));
}

TEST(EraseModel, PowTablesEqualStdPowForEveryChipType)
{
    for (const ChipType type :
         {ChipType::Tlc3d48L, ChipType::Tlc2d, ChipType::Mlc3d48L}) {
        // The tables a drive's chips read: their WearModel's copy.
        const ChipParams &p = WearModel::forType(type)->params();
        ASSERT_TRUE(p.tabulated) << p.name;
        // Every level a chip can pulse at, and past the tables' end.
        for (int level = 1; level <= ChipParams::kTabulatedLevels + 4;
             ++level) {
            const double dmg =
                std::pow(1.0 + p.kV * static_cast<double>(level - 1),
                         p.qDmg);
            EXPECT_EQ(p.dmgPerSlot(level), dmg) << p.name << " L" << level;
        }
        for (int k = 0; k <= ChipParams::kTabulatedLevels + 4; ++k) {
            EXPECT_EQ(p.underEffPow(k),
                      std::pow(p.underEff, static_cast<double>(k)))
                << p.name << " k" << k;
        }
        EXPECT_GE(ChipParams::kTabulatedLevels, p.maxLevel + 1) << p.name;
    }
}

/** Property sweep: for any requirement, Baseline-style full loops always
 *  complete within nIspeFor() loops. */
class CompletionSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(CompletionSweep, BaselineLoopsCompleteAtPredictedN)
{
    const auto p = params();
    const double r = GetParam();
    auto op = opWithRequirement(r);
    const int n = nIspeFor(p, r);
    for (int loop = 1; loop <= n; ++loop)
        applyPulse(p, op, loop, p.slotsPerLoop);
    EXPECT_GE(op.progress + 1e-9, r);
    // And one fewer loop must NOT complete (tightness).
    if (n > 1) {
        auto op2 = opWithRequirement(r);
        for (int loop = 1; loop < n; ++loop)
            applyPulse(p, op2, loop, p.slotsPerLoop);
        EXPECT_LT(op2.progress, r);
    }
}

INSTANTIATE_TEST_SUITE_P(Requirements, CompletionSweep,
                         ::testing::Values(1.0, 3.7, 7.0, 8.2, 13.9, 14.1,
                                           20.9, 27.3, 34.9, 48.0));

} // namespace
} // namespace aero
