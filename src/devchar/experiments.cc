#include "devchar/experiments.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "devchar/chip_shard.hh"
#include "exp/sweep_impl.hh"
#include "nand/erase_model.hh"

namespace aero
{

Fig4Data
runFig4Experiment(const FarmConfig &farm_cfg,
                  const std::vector<double> &pecs,
                  const CampaignScope &scope)
{
    ChipFarm farm(farm_cfg);
    Fig4Data data;
    data.blocksPerCurve = farm.totalSampledBlocks();
    const auto by_pec = measureChipSharded(
        farm.population(), farm_cfg.blocksPerChip, pecs,
        [](NandChip &chip, BlockId id, std::size_t) {
            return measureMIspe(chip, id);
        },
        scope);
    for (std::size_t pi = 0; pi < pecs.size(); ++pi) {
        Fig4Data::PecCurve curve;
        curve.pec = pecs[pi];
        for (const auto &m : by_pec[pi]) {
            curve.mtBersMs.push_back(m.mtBersMs);
            curve.nIspeCounts[m.nIspe] += 1;
            if (m.slotsRequired <= 5)
                curve.fracWithin2_5Ms += 1.0;
            if (m.nIspe == 1)
                curve.fracSingleLoop += 1.0;
        }
        const auto n = static_cast<double>(curve.mtBersMs.size());
        AERO_CHECK(n > 0, "fig4: empty curve");
        curve.fracWithin2_5Ms /= n;
        curve.fracSingleLoop /= n;
        double sum = 0.0;
        for (const double v : curve.mtBersMs)
            sum += v;
        curve.meanMtBersMs = sum / n;
        double var = 0.0;
        for (const double v : curve.mtBersMs)
            var += (v - curve.meanMtBersMs) * (v - curve.meanMtBersMs);
        curve.stddevMtBersMs = n > 1 ? std::sqrt(var / (n - 1)) : 0.0;
        data.curves.push_back(std::move(curve));
    }
    return data;
}

Fig7Data
runFig7Experiment(const FarmConfig &farm_cfg,
                  const std::vector<double> &pecs,
                  const CampaignScope &scope)
{
    ChipFarm farm(farm_cfg);
    const ChipParams &p = farm.params();
    Fig7Data data;
    std::map<int, Fig7Data::Row> rows;
    const auto by_pec = measureChipSharded(
        farm.population(), farm_cfg.blocksPerChip, pecs,
        [](NandChip &chip, BlockId id, std::size_t) {
            return measureMIspe(chip, id);
        },
        scope);
    for (const auto &records : by_pec) {
        for (const auto &m : records) {
            auto &row = rows[m.nIspe];
            row.nIspe = m.nIspe;
            // F after slot s leaves (slotsRequired - s) slots to go.
            for (int s = 1; s < m.slotsRequired; ++s) {
                const int remaining = m.slotsRequired - s;
                if (remaining > 7)
                    continue;
                const double f = m.failAfterSlot[s - 1];
                row.maxFailByRemaining[remaining] =
                    std::max(row.maxFailByRemaining[remaining], f);
                row.meanFailByRemaining[remaining] += f;
                row.samples[remaining] += 1;
            }
        }
    }
    double gamma_sum = 0.0;
    int gamma_n = 0;
    double delta_sum = 0.0;
    int delta_n = 0;
    for (auto &[n, row] : rows) {
        for (int r = 1; r <= 7; ++r) {
            if (row.samples[r] > 0)
                row.meanFailByRemaining[r] /= row.samples[r];
        }
        if (row.samples[1] > 0) {
            gamma_sum += row.meanFailByRemaining[1];
            gamma_n += 1;
        }
        for (int r = 1; r < 7; ++r) {
            if (row.samples[r] > 0 && row.samples[r + 1] > 0) {
                delta_sum += row.meanFailByRemaining[r + 1] -
                             row.meanFailByRemaining[r];
                delta_n += 1;
            }
        }
        data.rows.push_back(row);
    }
    data.gammaEstimate = gamma_n ? gamma_sum / gamma_n : p.gamma;
    data.deltaEstimate = delta_n ? delta_sum / delta_n : p.delta;
    return data;
}

Fig8Data
runFig8Experiment(const FarmConfig &farm_cfg,
                  const std::vector<double> &pecs,
                  const CampaignScope &scope)
{
    ChipFarm farm(farm_cfg);
    const ChipParams &p = farm.params();
    std::map<int, std::array<std::array<int, 8>, 9>> counts;
    std::map<int, int> totals;
    const auto by_pec = measureChipSharded(
        farm.population(), farm_cfg.blocksPerChip, pecs,
        [](NandChip &chip, BlockId id, std::size_t) {
            return measureMIspe(chip, id);
        },
        scope);
    for (const auto &records : by_pec) {
        for (const auto &m : records) {
            if (m.nIspe < 2 || m.nIspe > 5)
                continue;
            const int boundary = (m.nIspe - 1) * p.slotsPerLoop;
            if (boundary < 1 ||
                boundary > static_cast<int>(m.failAfterSlot.size()))
                continue;
            const double f = m.failAfterSlot[boundary - 1];
            const int range = Ept::rangeIndex(p, f);
            const int slots = m.slotsRequired - boundary;
            if (slots < 1 || slots > 7)
                continue;
            counts[m.nIspe][range][slots - 1] += 1;
            totals[m.nIspe] += 1;
        }
    }
    Fig8Data data;
    for (auto &[n, byRange] : counts) {
        Fig8Data::Row row;
        row.nIspe = n;
        row.samples = totals[n];
        for (int rg = 0; rg < 9; ++rg) {
            int range_total = 0;
            for (int s = 0; s < 8; ++s)
                range_total += byRange[rg][s];
            row.rangeFraction[rg] =
                row.samples ? static_cast<double>(range_total) /
                              row.samples
                            : 0.0;
            for (int s = 0; s < 8; ++s) {
                row.mtepProb[rg][s] =
                    range_total ? static_cast<double>(byRange[rg][s]) /
                                  range_total
                                : 0.0;
                row.modalProb[rg] =
                    std::max(row.modalProb[rg], row.mtepProb[rg][s]);
            }
        }
        data.rows.push_back(row);
    }
    return data;
}

const Fields<Fig9Data::Cell> &
Fig9Data::Cell::fields()
{
    using C = Fig9Data::Cell;
    static const Fields<C> table = {
        field("tse_slots", &C::tseSlots),
        field("pec", &C::pec),
        field("samples", &C::samples),
        field("range_fraction", &C::rangeFraction),
        field("benefit_fraction", &C::benefitFraction),
        field("avg_tbers_ms", &C::avgTbersMs),
    };
    return table;
}

Fig9Data
runFig9Experiment(const FarmConfig &farm_cfg,
                  const std::vector<int> &tse_slots,
                  const std::vector<double> &pecs,
                  const CampaignScope &scope)
{
    // Every (pec, tSE) cell runs on its own freshly seeded farm so the
    // cells are fully independent — parallelized cell-per-task, results
    // kept in the serial loop's cell order. Each completed cell is one
    // journal record keyed by its (pec, tSE) axes.
    struct CellPoint
    {
        double pec;
        int tse;
    };
    std::vector<CellPoint> points;
    for (const double pec : pecs) {
        for (const int tse : tse_slots)
            points.push_back({pec, tse});
    }
    Fig9Data data;
    data.cells = parallelMapJournaled(
        scope.journal, points,
        [&](std::size_t, const CellPoint &pt) {
            Json key = scope.base();
            key["pec"] = pt.pec;
            key["tse_slots"] = pt.tse;
            return key;
        },
        [&](const CellPoint &pt) {
        // Fresh farm per cell so every configuration sees the same
        // block population (the paper tests disjoint block sets).
        FarmConfig fc = farm_cfg;
        fc.seed = farm_cfg.seed + static_cast<std::uint64_t>(pt.tse);
        ChipFarm farm(fc);
        const ChipParams &p = farm.params();
        Fig9Data::Cell cell;
        cell.tseSlots = pt.tse;
        cell.pec = pt.pec;
        double tbers_sum = 0.0;
        farm.forEachBlockAt(pt.pec, [&](NandChip &chip, BlockId id) {
            chip.beginErase(id);
            chip.erasePulse(id, 1, pt.tse);
            auto vr = chip.verifyRead(id);
            int total_slots = pt.tse;
            int vrs = 1;
            const int range = Ept::rangeIndex(p, vr.failBits);
            cell.rangeFraction[range] += 1.0;
            if (!vr.pass) {
                // Remainder sized by the exact-fit prediction,
                // capped so probe+remainder never exceed a loop.
                const int cap = p.slotsPerLoop - pt.tse;
                int rem = static_cast<int>(std::ceil(
                    remainingSlotsFor(p, vr.failBits)));
                rem = std::clamp(rem, 1, std::max(1, cap));
                chip.erasePulse(id, 1, rem);
                vr = chip.verifyRead(id);
                total_slots += rem;
                vrs += 1;
                // Recovery: extra half-millisecond steps.
                int guard = 0;
                while (!vr.pass && ++guard < 2 * p.slotsPerLoop) {
                    chip.erasePulse(id, 1, 1);
                    vr = chip.verifyRead(id);
                    total_slots += 1;
                    vrs += 1;
                }
            }
            chip.finishErase(id);
            if (total_slots < p.slotsPerLoop)
                cell.benefitFraction += 1.0;
            tbers_sum += 0.5 * total_slots +
                         ticksToMs(p.tVr) * vrs;
            cell.samples += 1;
        });
        for (auto &f : cell.rangeFraction)
            f /= std::max(1, cell.samples);
        cell.benefitFraction /= std::max(1, cell.samples);
        cell.avgTbersMs = tbers_sum / std::max(1, cell.samples);
        return cell;
        });
    return data;
}

InsufficientErase
eraseInsufficiently(NandChip &chip, BlockId id)
{
    const ChipParams &p = chip.params();
    InsufficientErase out;
    chip.beginErase(id);
    out.nIspe = nIspeFor(p, chip.opRequirement(id));
    // Perform only the first N_ISPE - 1 full loops (zero loops for
    // single-loop blocks: F(0) is read directly).
    for (int i = 1; i < out.nIspe; ++i)
        chip.erasePulse(id, i, p.slotsPerLoop);
    const auto vr = chip.verifyRead(id);
    out.failBits = vr.failBits;
    out.range = Ept::rangeIndex(p, vr.failBits);
    chip.finishErase(id);
    out.mrberAfter = chip.maxRber(id);
    return out;
}

const Fields<CompleteErase> &
CompleteErase::fields()
{
    static const Fields<CompleteErase> table = {
        field("n", &CompleteErase::n),
        field("mrber", &CompleteErase::mrber),
    };
    return table;
}

const Fields<InsufficientErase> &
InsufficientErase::fields()
{
    using I = InsufficientErase;
    static const Fields<I> table = {
        field("n_ispe", &I::nIspe),
        field("fail_bits", &I::failBits),
        field("range", &I::range),
        field("mrber_after", &I::mrberAfter),
    };
    return table;
}

Fig10Data
runFig10Experiment(const FarmConfig &farm_cfg, const CampaignScope &scope)
{
    Fig10Data data;
    std::map<int, Fig10Data::CompleteRow> complete;
    std::map<std::pair<int, int>, Fig10Data::InsufficientRow> insufficient;
    // Each N_ISPE row is measured on blocks conditioned to the PEC where
    // that loop count is typical (the Fig. 4 bands).
    const std::pair<double, int> conditioning[] = {
        {500.0, 1}, {2000.0, 2}, {3000.0, 3}, {4200.0, 4},
        {5200.0, 5},
    };
    std::vector<double> cond_pecs;
    for (const auto &[pec, expect_n] : conditioning)
        cond_pecs.push_back(pec);
    {
        // (a) Complete erasure, each N row on representatively
        // conditioned blocks (see part (b) below).
        ChipFarm farm(farm_cfg);
        const ChipParams &p = farm.params();
        const auto by_pec = measureChipSharded(
            farm.population(), farm_cfg.blocksPerChip, cond_pecs,
            [&p](NandChip &chip, BlockId id, std::size_t) {
                chip.beginErase(id);
                const int n = std::min(
                    nIspeFor(p, chip.opRequirement(id)), 5);
                for (int i = 1; i <= n; ++i)
                    chip.erasePulse(id, i, p.slotsPerLoop);
                chip.finishErase(id);
                return CompleteErase{n, chip.maxRber(id)};
            },
            scope.with("pass", "complete"));
        for (std::size_t pi = 0; pi < cond_pecs.size(); ++pi) {
            const int expect_n = conditioning[pi].second;
            for (const auto &rec : by_pec[pi]) {
                if (rec.n != expect_n)
                    continue;
                auto &row = complete[rec.n];
                row.nIspe = rec.n;
                row.samples += 1;
                row.maxMrber = std::max(row.maxMrber, rec.mrber);
            }
        }
    }
    {
        // (b) Insufficient erasure on an identically seeded farm.
        // Outlier blocks whose loop count does not match the expected
        // band are skipped so a row is not polluted by laggards from a
        // much older population; every block is restored to complete
        // erasure so later PEC points see a normally conditioned block.
        ChipFarm farm(farm_cfg);
        const auto by_pec = measureChipSharded(
            farm.population(), farm_cfg.blocksPerChip, cond_pecs,
            [](NandChip &chip, BlockId id, std::size_t) {
                const auto r = eraseInsufficiently(chip, id);
                chip.beginErase(id);
                chip.erasePulse(id, std::max(1, std::min(
                    r.nIspe, chip.params().maxLevel)),
                    chip.params().slotsPerLoop);
                chip.finishErase(id);
                return r;
            },
            scope.with("pass", "insufficient"));
        for (std::size_t pi = 0; pi < cond_pecs.size(); ++pi) {
            const int expect_n = conditioning[pi].second;
            for (const auto &r : by_pec[pi]) {
                if (std::min(r.nIspe, 5) != expect_n)
                    continue;
                auto &row = insufficient[{expect_n, r.range}];
                row.nIspe = expect_n;
                row.range = r.range;
                row.samples += 1;
                row.maxMrber = std::max(row.maxMrber, r.mrberAfter);
            }
        }
    }
    for (auto &[n, row] : complete) {
        row.margin = data.rberRequirement - row.maxMrber;
        data.complete.push_back(row);
    }
    for (auto &[key, row] : insufficient) {
        row.safe = row.maxMrber <=
                   static_cast<double>(data.rberRequirement);
        data.insufficient.push_back(row);
    }
    std::sort(data.insufficient.begin(), data.insufficient.end(),
              [](const auto &a, const auto &b) {
                  return std::tie(a.nIspe, a.range) <
                         std::tie(b.nIspe, b.range);
              });
    return data;
}

Fig11Data
runFig11Experiment(const FarmConfig &base, const CampaignScope &scope)
{
    Fig11Data data;
    data.type = base.type;
    const auto fig7 =
        runFig7Experiment(base, {0.0, 1000.0, 2000.0, 3000.0},
                          scope.with("stage", "constants"));
    data.gammaEstimate = fig7.gammaEstimate;
    data.deltaEstimate = fig7.deltaEstimate;
    FarmConfig fc10 = base;
    fc10.seed = base.seed + 17;
    data.reliability =
        runFig10Experiment(fc10, scope.with("stage", "reliability"));
    return data;
}

} // namespace aero
