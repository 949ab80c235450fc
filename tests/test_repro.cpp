/**
 * @file
 * Reproduction-band tests: lock the calibrated model to the paper's
 * characterization results (Figs. 4 and 7-11) and the headline lifetime
 * ordering (Fig. 13) with generous tolerance bands. These are the tests
 * that fail if someone "optimizes" a constant and silently breaks the
 * reproduction.
 */

#include <gtest/gtest.h>

#include "devchar/experiments.hh"
#include "devchar/lifetime.hh"

namespace aero
{
namespace
{

FarmConfig
smallFarm(std::uint64_t seed = 0xfa51)
{
    FarmConfig fc;
    fc.numChips = 12;
    fc.blocksPerChip = 20;
    fc.seed = seed;
    return fc;
}

TEST(Fig4, NIspeBandsTrackThePaper)
{
    const auto data =
        runFig4Experiment(smallFarm(), {0, 1000, 2000, 3000, 5000});
    ASSERT_EQ(data.curves.size(), 5u);
    const auto &at0 = data.curves[0];
    const auto &at1k = data.curves[1];
    const auto &at2k = data.curves[2];
    const auto &at3k = data.curves[3];
    const auto &at5k = data.curves[4];

    // PEC 0: every block single-loop, the majority within 2.5 ms.
    EXPECT_GT(at0.fracSingleLoop, 0.99);
    EXPECT_GT(at0.fracWithin2_5Ms, 0.70);
    // PEC 1K: ~76.5% single-loop in the paper.
    EXPECT_NEAR(at1k.fracSingleLoop, 0.765, 0.15);
    // PEC 2K: essentially every erase needs >= 2 loops.
    EXPECT_LT(at2k.fracSingleLoop, 0.02);
    // PEC 3K: N_ISPE = 3 is the mode (paper: 40%).
    int mode_n = 0, mode_cnt = 0, total3k = 0;
    for (const auto &[n, cnt] : at3k.nIspeCounts) {
        total3k += cnt;
        if (cnt > mode_cnt) {
            mode_cnt = cnt;
            mode_n = n;
        }
    }
    EXPECT_EQ(mode_n, 3);
    EXPECT_NEAR(static_cast<double>(
                    at3k.nIspeCounts.count(3) ? at3k.nIspeCounts.at(3)
                                              : 0) / total3k,
                0.40, 0.25);
    // PEC 5K: loop counts reach (roughly) the paper's maximum of 5.
    int max_n = 0;
    for (const auto &[n, cnt] : at5k.nIspeCounts)
        max_n = std::max(max_n, n);
    EXPECT_GE(max_n, 4);
    EXPECT_LE(max_n, 6);
    // Latency variation peaks mid-life (paper: std ~2.7 ms at 3.5K).
    EXPECT_GT(at3k.stddevMtBersMs, 1.2);
    EXPECT_LT(at3k.stddevMtBersMs, 4.5);
    // mtBERS grows monotonically in the mean.
    EXPECT_LT(at0.meanMtBersMs, at1k.meanMtBersMs);
    EXPECT_LT(at1k.meanMtBersMs, at3k.meanMtBersMs);
    EXPECT_LT(at3k.meanMtBersMs, at5k.meanMtBersMs);
}

TEST(Fig7, FailBitsAreLinearWithFloorGamma)
{
    const auto p = ChipParams::tlc3d();
    const auto data =
        runFig7Experiment(smallFarm(3), {1500, 2500, 3500, 4500});
    // gamma floor at one slot remaining; slope delta per slot.
    EXPECT_NEAR(data.gammaEstimate, p.gamma, 0.25 * p.gamma);
    EXPECT_NEAR(data.deltaEstimate, p.delta, 0.15 * p.delta);
    // The linear relation holds within every N_ISPE group.
    for (const auto &row : data.rows) {
        for (int r = 1; r < 7; ++r) {
            if (row.samples[r] > 10 && row.samples[r + 1] > 10) {
                EXPECT_GT(row.meanFailByRemaining[r + 1],
                          row.meanFailByRemaining[r])
                    << "N=" << row.nIspe << " r=" << r;
            }
        }
    }
}

TEST(Fig8, FelpRangesPredictFinalLoopLatency)
{
    const auto data =
        runFig8Experiment(smallFarm(5), {2000, 2500, 3000, 3500, 4500});
    ASSERT_FALSE(data.rows.empty());
    for (const auto &row : data.rows) {
        if (row.samples < 200)
            continue;
        // Paper: a majority of blocks in the same fail-bit range need
        // the same mtEP (>= 66% in their data; we require a majority).
        double weighted_modal = 0.0;
        double covered = 0.0;
        for (int rg = 0; rg < 9; ++rg) {
            weighted_modal += row.rangeFraction[rg] * row.modalProb[rg];
            covered += row.rangeFraction[rg];
        }
        ASSERT_GT(covered, 0.99);
        EXPECT_GT(weighted_modal, 0.55) << "N=" << row.nIspe;
    }
}

TEST(Fig9, ShallowErasureBenefitsMostBlocks)
{
    const auto data =
        runFig9Experiment(smallFarm(7), {2, 4}, {100, 500});
    ASSERT_EQ(data.cells.size(), 4u);
    for (const auto &cell : data.cells) {
        // Paper: 80-88% of blocks erase faster than the default tEP.
        EXPECT_GT(cell.benefitFraction, 0.55)
            << "tSE=" << cell.tseSlots << " pec=" << cell.pec;
        // Average latency close to the paper's 2.5-2.9 ms.
        EXPECT_LT(cell.avgTbersMs, 3.6);
        EXPECT_GT(cell.avgTbersMs, 1.5);
    }
}

TEST(Fig10, ReliabilityMarginAndSafetyConditions)
{
    const auto data = runFig10Experiment(smallFarm(9));
    // (a) Complete erasure: max RBER grows with N_ISPE and there is a
    // positive margin at N=1 (paper: up to 47 bits).
    double prev = 0.0;
    for (const auto &row : data.complete) {
        EXPECT_GE(row.maxMrber, prev);
        prev = row.maxMrber;
        if (row.nIspe == 1) {
            EXPECT_GT(row.margin, 20.0);
        }
    }
    // (b) Insufficient erasure: C1 (N<=3, F<=d) safe; 2d unsafe; the
    // N=5 rows must never be safe above gamma.
    bool saw_c1 = false;
    for (const auto &row : data.insufficient) {
        if (row.samples < 5)
            continue;
        if (row.nIspe >= 2 && row.nIspe <= 3 && row.range <= 1) {
            EXPECT_TRUE(row.safe)
                << "C1 violated at N=" << row.nIspe
                << " range=" << row.range;
            saw_c1 = true;
        }
        if (row.nIspe <= 3 && row.range >= 3) {
            EXPECT_FALSE(row.safe)
                << "unexpectedly safe at N=" << row.nIspe
                << " range=" << row.range;
        }
        if (row.nIspe == 5 && row.range >= 1) {
            EXPECT_FALSE(row.safe);
        }
    }
    EXPECT_TRUE(saw_c1);
}

TEST(Fig11, OtherChipTypesShowSameStructure)
{
    for (const auto type : {ChipType::Tlc2d, ChipType::Mlc3d48L}) {
        FarmConfig fc;
        fc.type = type;
        fc.numChips = 16;
        fc.blocksPerChip = 24;
        fc.seed = 0xbeef;
        const auto data = runFig11Experiment(fc);
        const auto p = ChipParams::forType(type);
        EXPECT_NEAR(data.gammaEstimate, p.gamma, 0.3 * p.gamma)
            << chipTypeName(type);
        EXPECT_NEAR(data.deltaEstimate, p.delta, 0.2 * p.delta)
            << chipTypeName(type);
        // Insufficient erasure stays safe somewhere (aggressive tEP
        // reduction is feasible on these chips too).
        bool any_safe = false;
        for (const auto &row : data.reliability.insufficient)
            any_safe |= row.safe && row.samples >= 5;
        EXPECT_TRUE(any_safe) << chipTypeName(type);
    }
}

TEST(Fig13, LifetimeOrderingMatchesPaper)
{
    // Small, coarse endurance run: the ordering and rough ratios are the
    // paper's headline claim (i-ISPE < Baseline < DPES ~ CONS < AERO).
    // Same farm as bench/fig13_lifetime so the numbers line up with
    // EXPERIMENTS.md (the global-average crossing is sensitive to the
    // chip-level process-variation draw on small farms).
    LifetimeConfig cfg;
    cfg.farm.numChips = 16;
    cfg.farm.blocksPerChip = 24;
    cfg.checkpointEvery = 250;
    LifetimeTester tester(cfg);

    const auto base = tester.run(SchemeKind::Baseline);
    const auto iispe = tester.run(SchemeKind::IIspe);
    const auto dpes = tester.run(SchemeKind::Dpes);
    const auto cons = tester.run(SchemeKind::AeroCons);
    const auto aero = tester.run(SchemeKind::Aero);

    ASSERT_TRUE(base.crossed);
    // Baseline lifetime anchored near the paper's 5.3K.
    EXPECT_NEAR(base.lifetimePec, 5300.0, 600.0);
    // Ordering.
    EXPECT_LT(iispe.lifetimePec, base.lifetimePec);
    EXPECT_GT(dpes.lifetimePec, base.lifetimePec);
    EXPECT_GT(cons.lifetimePec, base.lifetimePec);
    EXPECT_GT(aero.lifetimePec, cons.lifetimePec);
    // Rough ratios (paper: -25%, +26%, +30%, +43%).
    EXPECT_NEAR(iispe.lifetimePec / base.lifetimePec, 0.75, 0.15);
    EXPECT_NEAR(dpes.lifetimePec / base.lifetimePec, 1.26, 0.15);
    EXPECT_NEAR(cons.lifetimePec / base.lifetimePec, 1.30, 0.15);
    EXPECT_NEAR(aero.lifetimePec / base.lifetimePec, 1.45, 0.25);
    // AERO trades fresh-block margin for slower growth (paper Fig. 13).
    EXPECT_GT(aero.freshMrber, base.freshMrber + 5.0);
    // And erases faster on average.
    EXPECT_LT(aero.avgEraseLatencyMs, base.avgEraseLatencyMs * 0.9);
}

TEST(Fig16, MispredictionsDegradeGracefully)
{
    LifetimeConfig cfg;
    cfg.farm = smallFarm(13);
    cfg.farm.numChips = 4;
    cfg.farm.blocksPerChip = 10;
    LifetimeTester tester(cfg);
    const auto clean = tester.run(SchemeKind::Aero);
    cfg.schemeOptions.mispredictionRate = 0.20;
    LifetimeTester noisy_tester(cfg);
    const auto noisy = noisy_tester.run(SchemeKind::Aero);
    // Paper: even at 20% misprediction AERO keeps most of its benefit.
    EXPECT_GT(noisy.lifetimePec, clean.lifetimePec * 0.85);
    EXPECT_LE(noisy.lifetimePec, clean.lifetimePec * 1.05);
}

TEST(Fig17, WeakerEccShrinksButKeepsAeroBenefit)
{
    LifetimeConfig cfg;
    cfg.farm = smallFarm(15);
    cfg.farm.numChips = 4;
    cfg.farm.blocksPerChip = 10;
    cfg.schemeOptions.rberRequirement = 40;
    LifetimeTester tester(cfg);
    const auto cons = tester.run(SchemeKind::AeroCons);
    const auto aero = tester.run(SchemeKind::Aero);
    // Paper: AERO retains an advantage over CONS at weaker ECC; in our
    // model the 40-bit margin is nearly exhausted, so allow a tie.
    EXPECT_GE(aero.lifetimePec, cons.lifetimePec);
}

} // namespace
} // namespace aero
