#include "nand/nand_chip.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "nand/erase_model.hh"

namespace aero
{

NandChip::NandChip(const ChipParams &params, const ChipGeometry &geom,
                   std::uint64_t seed, double chip_pv)
    : NandChip(std::make_shared<const WearModel>(params), geom, seed,
               chip_pv)
{
}

NandChip::NandChip(std::shared_ptr<const WearModel> wear_,
                   const ChipGeometry &geom, std::uint64_t seed,
                   double chip_pv)
    : chip(wear_->params()), geo(geom), wear(std::move(wear_)),
      chipPvFactor(chip_pv)
{
    AERO_CHECK(geo.planes > 0 && geo.blocksPerPlane > 0 &&
               geo.pagesPerBlock > 0, "invalid chip geometry");
    Rng chip_rng(seed);
    const int n = geo.totalBlocks();
    blocks.reserve(n);
    for (int i = 0; i < n; ++i) {
        const double pv_z = chip_rng.gauss();
        blocks.emplace_back(static_cast<BlockId>(i),
                            pv_z, chip_rng.fork(i));
    }
}

Block &
NandChip::block(BlockId id)
{
    AERO_CHECK(id < blocks.size(), "block id out of range: ", id);
    return blocks[id];
}

const Block &
NandChip::block(BlockId id) const
{
    AERO_CHECK(id < blocks.size(), "block id out of range: ", id);
    return blocks[id];
}

void
NandChip::beginErase(BlockId id)
{
    Block &blk = block(id);
    AERO_CHECK(!blk.op().active, "beginErase on block with in-flight erase");
    blk.op().reset();
    blk.op().active = true;
    const double peq = wear->equivalentPec(blk.wear());
    blk.op().requirement = sampleRequirement(chip, peq, blk.pvZ(),
                                             chipPvFactor, blk.rng());
}

PulseResult
NandChip::erasePulse(BlockId id, int level, int slots, double stress_scale)
{
    Block &blk = block(id);
    AERO_CHECK(blk.op().active, "erasePulse without beginErase");
    AERO_CHECK(level >= 1 && level <= chip.maxLevel,
               "erase level beyond the chip's V_ERASE range: ", level);
    // Pulses that skip preamble levels (i-ISPE's jump) leave a residue of
    // lagging wordlines; the residue defeats the pulse no matter how much
    // voltage headroom it had. The probability is a property of the
    // *block* (how many staircase levels its deep cells actually need),
    // not of how high the pulse jumped.
    const int needed = chip.scheduleLevel(blk.op().progress);
    const int skipped = level - needed;
    const int intrinsic = nIspeFor(chip, blk.op().requirement) - 1;
    const int lag_levels = std::min(skipped, intrinsic);
    // An escalated retry usually reaches the lagging wordlines (at the
    // cost of its higher V_ERASE -- exactly the paper's criticism of
    // i-ISPE), so the lagging risk is strongly reduced on retry pulses.
    const double retry_scale =
        blk.op().pulses == 0 ? 1.0 : chip.skipFailRetryFactor;
    const bool lagging =
        lag_levels > 0 &&
        pulseJumpDepth(chip, level) > blk.op().progress &&
        blk.rng().chance(retry_scale *
                         std::min(chip.skipFailCap,
                                  chip.skipFailPerLevel * lag_levels));
    applyPulse(chip, blk.op(), level, slots, stress_scale);
    if (lagging) {
        const double resid = blk.rng().uniform(chip.skipFailResidLo,
                                               chip.skipFailResidHi);
        blk.op().progress = std::min(blk.op().progress,
                                     blk.op().requirement - resid);
    }
    PulseResult res;
    res.duration = static_cast<Tick>(slots) * chip.tSlot;
    res.slots = slots;
    res.level = level;
    return res;
}

VerifyResult
NandChip::verifyRead(BlockId id)
{
    Block &blk = block(id);
    AERO_CHECK(blk.op().active, "verifyRead without beginErase");
    VerifyResult res;
    res.failBits = failBits(chip, blk.op(), blk.rng());
    res.pass = res.failBits <= chip.fPass;
    res.duration = chip.tVr;
    return res;
}

EraseCommit
NandChip::finishErase(BlockId id)
{
    Block &blk = block(id);
    AERO_CHECK(blk.op().active, "finishErase without beginErase");
    EraseCommit c;
    const EraseOpState &op = blk.op();
    c.leftoverSlots = std::max(0.0, op.requirement - op.progress);
    c.complete = c.leftoverSlots <= 0.0;
    c.damage = op.damage;
    c.pulses = op.pulses;
    c.slotsApplied = op.slotsApplied;
    c.maxLevel = op.maxLevel;

    blk.addWear(op.damage);
    blk.setPec(blk.pec() + 1.0);
    blk.setLeftover(c.leftoverSlots);
    blk.resetPages();
    blk.op().reset();
    ++eraseOps;
    return c;
}

Tick
NandChip::readPage(BlockId id, int page)
{
    const Block &blk = block(id);
    AERO_CHECK(page >= 0 && page < geo.pagesPerBlock,
               "page out of range: ", page);
    // Reading an unwritten page is allowed (returns all-erased data) and
    // costs the same sensing latency.
    (void)blk;
    return chip.tRead;
}

Tick
NandChip::programPage(BlockId id, Tick tprog_override)
{
    programPages(id, 1);
    return tprog_override != 0 ? tprog_override : chip.tProg;
}

void
NandChip::programPages(BlockId id, int count)
{
    Block &blk = block(id);
    AERO_CHECK(!blk.op().active, "program during in-flight erase");
    AERO_CHECK(count > 0, "programming ", count, " pages");
    AERO_CHECK(count <= geo.pagesPerBlock - blk.programmedPages(),
               "program past end of block ", id,
               " (erase-before-write violated)");
    blk.claimPages(count);
}

void
NandChip::setProgrammedPages(BlockId id, int count)
{
    Block &blk = block(id);
    AERO_CHECK(!blk.op().active, "program during in-flight erase");
    AERO_CHECK(count >= 0 && count <= geo.pagesPerBlock, "marking ", count,
               " pages of a ", geo.pagesPerBlock, "-page block programmed");
    blk.resetPages();
    blk.claimPages(count);
}

double
NandChip::maxRber(BlockId id) const
{
    const Block &blk = block(id);
    return wear->maxRber(blk.wear(), blk.leftoverSlots());
}

double
NandChip::opRequirement(BlockId id) const
{
    const Block &blk = block(id);
    AERO_CHECK(blk.op().active, "opRequirement outside erase operation");
    return blk.op().requirement;
}

void
NandChip::ageBaseline(BlockId id, int cycles)
{
    Block &blk = block(id);
    AERO_CHECK(!blk.op().active, "ageBaseline during in-flight erase");
    AERO_CHECK(cycles >= 0, "negative aging");
    if (cycles == 0)
        return;
    // Closed-form: along the Baseline trajectory, equivalent PEC tracks
    // nominal PEC, so the delta of the cumulative curve is the expected
    // damage of `cycles` full-tEP erases.
    const double peq0 = wear->equivalentPec(blk.wear());
    const double add = wear->baselineCumDamage(peq0 + cycles) -
                       wear->baselineCumDamage(peq0);
    blk.addWear(add);
    blk.setPec(blk.pec() + cycles);
    blk.setLeftover(0.0);
    blk.resetPages();
}

} // namespace aero
