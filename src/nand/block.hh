/**
 * @file
 * Per-block persistent state. A Block is a passive record; all physics is
 * applied through NandChip (which owns the WearModel and RNG streams).
 */

#ifndef AERO_NAND_BLOCK_HH
#define AERO_NAND_BLOCK_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "nand/erase_model.hh"

namespace aero
{

class Block
{
  public:
    Block(BlockId id, double pv_z, Rng rng);

    BlockId id() const { return blockId; }

    /** Frozen process-variation z-score (easy vs hard to erase). */
    double pvZ() const { return pvZScore; }

    /** Nominal program/erase cycle count. */
    double pec() const { return pecCount; }

    /** Accumulated erase-stress damage. */
    double wear() const { return wearDamage; }

    /** Slots of erasure the last erase left undone (aggressive AERO). */
    double leftoverSlots() const { return leftover; }

    /** Pages programmed since the last erase (sequential-in-block). */
    int programmedPages() const { return nextPage; }

    /** In-flight erase operation state. */
    EraseOpState &op() { return opState; }
    const EraseOpState &op() const { return opState; }

    Rng &rng() { return blockRng; }

    /** @name Mutators used exclusively by NandChip */
    /** @{ */
    void addWear(double d) { wearDamage += d; }
    void setPec(double p) { pecCount = p; }
    void setLeftover(double l) { leftover = l; }
    void resetPages() { nextPage = 0; }
    /** Claim the next `n` pages; returns the first. */
    int
    claimPages(int n)
    {
        const int first = nextPage;
        nextPage += n;
        return first;
    }
    /** @} */

  private:
    BlockId blockId;
    double pvZScore;
    double pecCount = 0.0;
    double wearDamage = 0.0;
    double leftover = 0.0;
    int nextPage = 0;
    EraseOpState opState;
    Rng blockRng;
};

} // namespace aero

#endif // AERO_NAND_BLOCK_HH
