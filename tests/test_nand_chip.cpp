/**
 * @file
 * Unit tests for the NAND chip model: micro-op protocol, erase-before-
 * write enforcement, aging, and determinism.
 */

#include <gtest/gtest.h>

#include "nand/nand_chip.hh"
#include "nand/erase_model.hh"
#include "nand/population.hh"

namespace aero
{
namespace
{

NandChip
makeChip(std::uint64_t seed = 42)
{
    return NandChip(ChipParams::tlc3d(), ChipGeometry{2, 8, 16}, seed);
}

TEST(NandChip, GeometryAndBlockCount)
{
    auto chip = makeChip();
    EXPECT_EQ(chip.numBlocks(), 16);
    EXPECT_EQ(chip.geometry().totalBlocks(), 16);
}

TEST(NandChip, FullEraseProtocol)
{
    auto chip = makeChip();
    chip.beginErase(0);
    const double req = chip.opRequirement(0);
    EXPECT_GE(req, 1.0);
    int loop = 0;
    VerifyResult vr;
    do {
        ++loop;
        const auto pr =
            chip.erasePulse(0, loop, chip.params().slotsPerLoop);
        EXPECT_EQ(pr.duration, chip.params().defaultTep());
        vr = chip.verifyRead(0);
        EXPECT_EQ(vr.duration, chip.params().tVr);
    } while (!vr.pass && loop < 10);
    EXPECT_TRUE(vr.pass);
    EXPECT_EQ(loop, nIspeFor(chip.params(), req));
    const auto commit = chip.finishErase(0);
    EXPECT_TRUE(commit.complete);
    EXPECT_DOUBLE_EQ(commit.leftoverSlots, 0.0);
    EXPECT_GT(commit.damage, 0.0);
    EXPECT_EQ(chip.block(0).pec(), 1.0);
    EXPECT_EQ(chip.eraseOpsCompleted(), 1u);
}

TEST(NandChip, IncompleteEraseLeavesLeftover)
{
    auto chip = makeChip();
    chip.ageBaseline(0, 2500);  // multi-loop territory
    chip.beginErase(0);
    chip.erasePulse(0, 1, chip.params().slotsPerLoop);  // one loop only
    const auto vr = chip.verifyRead(0);
    EXPECT_FALSE(vr.pass);
    const auto commit = chip.finishErase(0);
    EXPECT_FALSE(commit.complete);
    EXPECT_GT(commit.leftoverSlots, 0.0);
    EXPECT_GT(chip.maxRber(0),
              chip.wearModel().rberBase(
                  chip.wearModel().equivalentPec(chip.block(0).wear())));
}

TEST(NandChip, ProtocolViolationsPanic)
{
    auto chip = makeChip();
    EXPECT_DEATH(chip.erasePulse(0, 1, 7), "beginErase");
    EXPECT_DEATH(chip.verifyRead(0), "beginErase");
    EXPECT_DEATH(chip.finishErase(0), "beginErase");
    chip.beginErase(0);
    EXPECT_DEATH(chip.beginErase(0), "in-flight");
    EXPECT_DEATH(chip.programPage(0), "during in-flight");
    EXPECT_DEATH(chip.erasePulse(0, 99, 1), "V_ERASE range");
}

TEST(NandChip, EraseBeforeWriteEnforced)
{
    auto chip = makeChip();
    const int pages = chip.geometry().pagesPerBlock;
    for (int i = 0; i < pages; ++i)
        EXPECT_EQ(chip.programPage(1), chip.params().tProg);
    EXPECT_DEATH(chip.programPage(1), "erase-before-write");
    // Erase resets the page cursor.
    chip.beginErase(1);
    chip.erasePulse(1, 1, 7);
    chip.finishErase(1);
    EXPECT_EQ(chip.block(1).programmedPages(), 0);
    EXPECT_EQ(chip.programPage(1), chip.params().tProg);
}

TEST(NandChip, ProgramRunKeepsEraseBeforeWrite)
{
    auto chip = makeChip();
    const int pages = chip.geometry().pagesPerBlock;
    chip.programPages(1, pages - 3);
    EXPECT_EQ(chip.block(1).programmedPages(), pages - 3);
    EXPECT_DEATH(chip.programPages(1, 4), "erase-before-write");
    chip.programPages(1, 3);
    EXPECT_EQ(chip.block(1).programmedPages(), pages);
    EXPECT_DEATH(chip.programPages(2, 0), "programming 0 pages");
    chip.beginErase(2);
    EXPECT_DEATH(chip.programPages(2, 1), "during in-flight");
}

TEST(NandChip, ProgramLatencyOverride)
{
    auto chip = makeChip();
    EXPECT_EQ(chip.programPage(2, 455 * kUs), 455 * kUs);
}

TEST(NandChip, ReadPageLatency)
{
    auto chip = makeChip();
    EXPECT_EQ(chip.readPage(0, 3), chip.params().tRead);
    EXPECT_DEATH(chip.readPage(0, 999), "page out of range");
}

TEST(NandChip, AgeBaselineMatchesExplicitCycling)
{
    // Analytic aging must land near the wear of actually running the
    // Baseline loops (population-average equivalence).
    auto aged = makeChip(7);
    aged.ageBaseline(0, 1000);
    EXPECT_EQ(aged.block(0).pec(), 1000.0);
    const double analytic_peq =
        aged.wearModel().equivalentPec(aged.block(0).wear());
    EXPECT_NEAR(analytic_peq, 1000.0, 50.0);
}

TEST(NandChip, DeterministicAcrossInstances)
{
    auto a = makeChip(99);
    auto b = makeChip(99);
    for (int i = 0; i < 3; ++i) {
        a.beginErase(4);
        b.beginErase(4);
        EXPECT_DOUBLE_EQ(a.opRequirement(4), b.opRequirement(4));
        a.erasePulse(4, 1, 7);
        b.erasePulse(4, 1, 7);
        EXPECT_DOUBLE_EQ(a.verifyRead(4).failBits,
                         b.verifyRead(4).failBits);
        a.finishErase(4);
        b.finishErase(4);
    }
}

TEST(NandChip, MaxRberGrowsWithWear)
{
    auto chip = makeChip();
    const double fresh = chip.maxRber(5);
    chip.ageBaseline(5, 3000);
    EXPECT_GT(chip.maxRber(5), fresh + 10.0);
}

TEST(Population, ChipsVaryButAreDeterministic)
{
    PopulationConfig cfg;
    cfg.numChips = 8;
    cfg.geometry = ChipGeometry{1, 4, 8};
    ChipPopulation a(cfg), b(cfg);
    EXPECT_EQ(a.numChips(), 8);
    EXPECT_EQ(a.totalBlocks(), 32);
    // Chip pv factors differ across chips but match across instances.
    bool any_diff = false;
    for (int i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(a.chip(i).chipPv(), b.chip(i).chipPv());
        if (i > 0 && a.chip(i).chipPv() != a.chip(0).chipPv())
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Population, SampledBlockVisitCounts)
{
    PopulationConfig cfg;
    cfg.numChips = 4;
    cfg.geometry = ChipGeometry{1, 10, 8};
    ChipPopulation pop(cfg);
    int visits = 0;
    pop.forEachSampledBlock(5, [&](NandChip &, BlockId id) {
        EXPECT_LT(id, 10u);
        ++visits;
    });
    EXPECT_EQ(visits, 20);
    // Requesting more blocks than exist clamps to the chip size.
    visits = 0;
    pop.forEachSampledBlock(99, [&](NandChip &, BlockId) { ++visits; });
    EXPECT_EQ(visits, 40);
}

} // namespace
} // namespace aero
