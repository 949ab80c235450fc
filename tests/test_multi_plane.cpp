/**
 * @file
 * Unit tests for multi-plane erase composition (paper section 6).
 */

#include <gtest/gtest.h>

#include "core/aero_scheme.hh"
#include "erase/baseline_ispe.hh"
#include "erase/multi_plane.hh"

namespace aero
{
namespace
{

NandChip
makeChip(std::uint64_t seed = 1)
{
    return NandChip(ChipParams::tlc3d(), ChipGeometry{4, 8, 16}, seed);
}

TEST(MultiPlane, JointLatencyIsMaxNotSum)
{
    auto chip = makeChip(3);
    for (int b = 0; b < chip.numBlocks(); ++b)
        chip.ageBaseline(b, 2500);
    BaselineIspe scheme(chip, SchemeOptions{});
    const std::vector<BlockId> blocks = {0, 8, 16, 24};  // one per plane
    const auto out = MultiPlaneErase::eraseNow(scheme, blocks);
    ASSERT_EQ(out.perBlock.size(), 4u);
    Tick max_member = 0;
    for (const auto &o : out.perBlock) {
        EXPECT_TRUE(o.complete);
        max_member = std::max(max_member, o.latency);
    }
    EXPECT_EQ(out.latency, max_member);
    EXPECT_LT(out.latency, out.serialLatency);
}

TEST(MultiPlane, EarlyMembersAreInhibited)
{
    // Damage of a multi-plane erase must equal the sum of the members'
    // own needs: a finished block takes no pulses from later loops.
    auto joint_chip = makeChip(5);
    auto solo_chip = makeChip(5);
    for (int b = 0; b < joint_chip.numBlocks(); ++b) {
        joint_chip.ageBaseline(b, 2500);
        solo_chip.ageBaseline(b, 2500);
    }
    BaselineIspe joint_scheme(joint_chip, SchemeOptions{});
    BaselineIspe solo_scheme(solo_chip, SchemeOptions{});
    const std::vector<BlockId> blocks = {0, 8, 16, 24};
    const auto joint = MultiPlaneErase::eraseNow(joint_scheme, blocks);
    double solo_damage = 0.0;
    for (const BlockId b : blocks)
        solo_damage += eraseNow(solo_scheme, b).damage;
    EXPECT_NEAR(joint.totalDamage, solo_damage, 1e-9);
}

TEST(MultiPlane, WorksWithAeroAndKeepsReduction)
{
    auto base_chip = makeChip(7);
    auto aero_chip = makeChip(7);
    for (int b = 0; b < base_chip.numBlocks(); ++b) {
        base_chip.ageBaseline(b, 2500);
        aero_chip.ageBaseline(b, 2500);
    }
    BaselineIspe base(base_chip, SchemeOptions{});
    auto aero = makeEraseScheme(SchemeKind::Aero, aero_chip,
                                SchemeOptions{});
    const std::vector<BlockId> blocks = {1, 9, 17, 25};
    const auto jb = MultiPlaneErase::eraseNow(base, blocks);
    const auto ja = MultiPlaneErase::eraseNow(*aero, blocks);
    EXPECT_LT(ja.totalDamage, jb.totalDamage);
    EXPECT_LE(ja.latency, jb.latency + msToTicks(0.5));
}

TEST(MultiPlane, SingleBlockDegenerates)
{
    auto chip = makeChip(9);
    BaselineIspe scheme(chip, SchemeOptions{});
    const auto out = MultiPlaneErase::eraseNow(scheme, {2});
    EXPECT_EQ(out.latency, out.serialLatency);
    EXPECT_EQ(out.perBlock.size(), 1u);
}

TEST(MultiPlane, RejectsTooManyBlocks)
{
    auto chip = makeChip(11);
    BaselineIspe scheme(chip, SchemeOptions{});
    EXPECT_DEATH(MultiPlaneErase(scheme, {0, 1, 2, 3, 4}),
                 "more blocks than planes");
}

} // namespace
} // namespace aero
