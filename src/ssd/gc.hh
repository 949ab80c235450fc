/**
 * @file
 * Garbage-collection victim selection: the GC policy names a victim
 * order, and gcKey() computes it.
 *
 * A policy does not scan the plane itself: when GC needs a victim,
 * BlockManager::pickVictim (ssd/block_manager.hh) scans the plane's Full
 * blocks and keeps the lowest (score, tie, block) key, with the block id
 * as the final tie-breaker so the order is total and selection is
 * deterministic. gcKey() reads only the GcLineInfo fields (valid pages,
 * fill stamp, erase count, block id), never the simulated clock.
 *
 * Policies:
 *  - greedy:       fewest valid pages (the paper's Table 2 policy [77]);
 *                  ties fall to the lowest block id.
 *  - cost-benefit: migration cost over reclaimed space, weighted by the
 *                  block's erase count so worn blocks are cycled less
 *                  (Kawaguchi-style, with wear standing in for age);
 *                  ties prefer the oldest fill.
 *  - fifo-log:     strict log order — the block whose current fill was
 *                  opened first, independent of valid-page count. The
 *                  old "fifo" policy used the numeric block id, which
 *                  breaks down as soon as an erased block is refilled;
 *                  the allocation stamp survives reuse cycles. "fifo"
 *                  stays accepted as an alias of fifo-log.
 *
 * The migration/erase orchestration lives in the FTL; this module holds
 * the victim order and job bookkeeping.
 */

#ifndef AERO_SSD_GC_HH
#define AERO_SSD_GC_HH

#include <cstdint>

#include "common/names.hh"
#include "common/types.hh"

namespace aero
{

/** GC victim-selection policy (see the file comment). */
enum class GcPolicy
{
    Greedy,
    CostBenefit,
    FifoLog,
};

inline NameTable<GcPolicy>
nameTable(GcPolicy)
{
    static constexpr NamedValue<GcPolicy> rows[] = {
        {"greedy", GcPolicy::Greedy},
        {"cost-benefit", GcPolicy::CostBenefit},
        {"fifo-log", GcPolicy::FifoLog},
        {"fifo", GcPolicy::FifoLog},
    };
    return {"GC policy", rows};
}

/** One in-flight GC (or wear-leveling) operation on a plane. */
struct GcJob
{
    int chip = -1;
    int plane = -1;
    BlockId victim = kInvalidBlock;
    int nextPage = 0;       //!< scan cursor over the victim's pages
    int migrated = 0;       //!< pages actually copied
    bool eraseIssued = false;
    bool wearLevel = false; //!< cold-data relocation, not reclamation
};

/** Everything a policy may score a Full block by. */
struct GcLineInfo
{
    BlockId block = kInvalidBlock;
    int validPages = 0;
    int pagesPerBlock = 0;
    std::uint64_t openSeq = 0;     //!< drive-wide stamp of the current fill
    std::uint64_t eraseCount = 0;  //!< completed erases of this block
};

/** A block's place in the victim order; lower (score, tie) wins. */
struct GcKey
{
    double score = 0.0;      //!< victim badness
    std::uint64_t tie = 0;   //!< secondary key when scores tie exactly
};

/** The victim key of @p line under @p policy (a pure function). */
inline GcKey
gcKey(GcPolicy policy, const GcLineInfo &line)
{
    switch (policy) {
      case GcPolicy::Greedy:
        return {static_cast<double>(line.validPages), line.block};
      case GcPolicy::CostBenefit: {
        // cost (pages to migrate) over benefit (pages reclaimed, +1 so a
        // fully-valid block stays finite), scaled up with wear so heavily
        // cycled blocks become unattractive victims.
        const double cost = static_cast<double>(line.validPages);
        const double benefit =
            static_cast<double>(line.pagesPerBlock - line.validPages + 1);
        const double wear = 1.0 + static_cast<double>(line.eraseCount);
        return {cost / benefit * wear, line.openSeq};
      }
      case GcPolicy::FifoLog:
        return {static_cast<double>(line.openSeq), line.block};
    }
    return {};
}

} // namespace aero

#endif // AERO_SSD_GC_HH
