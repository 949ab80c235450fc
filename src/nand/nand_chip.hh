/**
 * @file
 * Functional + timing model of one NAND flash chip.
 *
 * The erase interface is deliberately split into the micro-operations the
 * paper's AERO-FTL drives through ONFI GET/SET FEATURE commands:
 *
 *   beginErase()  -> start an erase operation on a block
 *   erasePulse()  -> one EP step at an explicit ISPE level and tEP
 *                    (SET FEATURE: erase time)
 *   verifyRead()  -> one VR step returning the fail-bit count F
 *                    (GET FEATURE: fail-bit count)
 *   finishErase() -> commit (PEC++, wear accounting, leftover bookkeeping)
 *
 * Erase schemes (Baseline ISPE, i-ISPE, DPES, AERO) are built entirely on
 * top of this surface; none of them touches block internals. All
 * micro-operations return their duration so the event-driven SSD simulator
 * can charge chip-occupancy time, including mid-pulse suspension.
 *
 * The WearModel is a pure function of the chip type, and building one
 * integrates the whole Baseline damage curve. A chip therefore holds it
 * through a shared pointer to const: drives (Ftl) and characterization
 * farms (ChipPopulation) take the process-wide WearModel::forType model
 * and hand it to every chip. Sharing is read-only and thread-safe.
 */

#ifndef AERO_NAND_NAND_CHIP_HH
#define AERO_NAND_NAND_CHIP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "nand/block.hh"
#include "nand/chip_params.hh"
#include "nand/wear_model.hh"

namespace aero
{

/** Physical layout of one chip. */
struct ChipGeometry
{
    int planes = 4;
    int blocksPerPlane = 497;
    int pagesPerBlock = 2112;

    int totalBlocks() const { return planes * blocksPerPlane; }
};

struct PulseResult
{
    Tick duration = 0;
    int slots = 0;
    int level = 0;
};

struct VerifyResult
{
    double failBits = 0.0;
    bool pass = false;      //!< F <= F_PASS: block completely erased
    Tick duration = 0;
};

struct EraseCommit
{
    bool complete = false;      //!< leftover == 0
    double leftoverSlots = 0.0;
    double damage = 0.0;
    int pulses = 0;
    int slotsApplied = 0;
    int maxLevel = 0;
};

class NandChip
{
  public:
    /**
     * @param params  chip-type parameter set
     * @param geom    physical layout
     * @param seed    chip RNG seed (drives all per-block substreams)
     * @param chip_pv chip-level process-variation factor (1.0 = nominal);
     *                pass a value sampled from the population model
     */
    NandChip(const ChipParams &params, const ChipGeometry &geom,
             std::uint64_t seed, double chip_pv = 1.0);

    /**
     * A chip of the model's type that shares `wear` with other chips;
     * the chip-type parameters are the model's. Otherwise as above.
     */
    NandChip(std::shared_ptr<const WearModel> wear,
             const ChipGeometry &geom, std::uint64_t seed,
             double chip_pv = 1.0);

    const ChipParams &params() const { return chip; }
    const ChipGeometry &geometry() const { return geo; }
    const WearModel &wearModel() const { return *wear; }
    double chipPv() const { return chipPvFactor; }

    int numBlocks() const { return static_cast<int>(blocks.size()); }
    Block &block(BlockId id);
    const Block &block(BlockId id) const;

    /** @name Erase micro-operations */
    /** @{ */

    /** Start an erase operation: samples this operation's requirement R. */
    void beginErase(BlockId id);

    /**
     * One erase-pulse (EP) step.
     * @param level        ISPE voltage level (1 = V_ERASE(1))
     * @param slots        pulse length in 0.5-ms slots (SET FEATURE tEP)
     * @param stress_scale damage-only scale (DPES's reduced V_ERASE)
     */
    PulseResult erasePulse(BlockId id, int level, int slots,
                           double stress_scale = 1.0);

    /** One verify-read (VR) step; F is readable until the next pulse. */
    VerifyResult verifyRead(BlockId id);

    /** Commit the operation and return what physically happened. */
    EraseCommit finishErase(BlockId id);

    /** @} */

    /** @name Page operations (timing + erase-before-write enforcement) */
    /** @{ */
    Tick readPage(BlockId id, int page);
    /** Programs the next free page in the block; returns latency. */
    Tick programPage(BlockId id, Tick tprog_override = 0);
    /** Programs the next `count` free pages of the block (no timing). */
    void programPages(BlockId id, int count);
    /**
     * Mark the block's first `count` pages programmed and the rest free,
     * as the FTL's block table has them (conditioning; no timing).
     */
    void setProgrammedPages(BlockId id, int count);
    /** @} */

    /** Max RBER of the block under 1-yr retention (paper's metric). */
    double maxRber(BlockId id) const;

    /** True requirement values, for characterization harnesses only. */
    double opRequirement(BlockId id) const;

    /**
     * Analytically age a block by `cycles` Baseline erases (fast path for
     * experiment conditioning; equivalent in expectation to running the
     * Baseline scheme `cycles` times).
     */
    void ageBaseline(BlockId id, int cycles);

    /** Number of completed erase operations (all blocks). */
    std::uint64_t eraseOpsCompleted() const { return eraseOps; }

  private:
    ChipParams chip;
    ChipGeometry geo;
    std::shared_ptr<const WearModel> wear;  //!< never null
    double chipPvFactor;
    std::vector<Block> blocks;
    std::uint64_t eraseOps = 0;
};

} // namespace aero

#endif // AERO_NAND_NAND_CHIP_HH
