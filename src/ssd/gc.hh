/**
 * @file
 * Garbage-collection victim selection behind a scoring-policy interface.
 *
 * A policy does not scan the plane itself: when GC needs a victim, the
 * LineManager (ssd/line_manager.hh) scans the plane's Full blocks and
 * keeps the lowest key. Policies therefore only define an ordering:
 * score() (lower is better) plus a tieBreak() key, with the block id as
 * the final tie-breaker so the order is total and selection is
 * deterministic. Scores read only the GcLineInfo fields (valid pages,
 * fill stamp, erase count, block id), never the simulated clock.
 *
 * Registered policies:
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
 *                  the allocation stamp survives reuse cycles.
 *
 * The migration/erase orchestration lives in the FTL; this module holds
 * the policies and job bookkeeping.
 */

#ifndef AERO_SSD_GC_HH
#define AERO_SSD_GC_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"

namespace aero
{

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

/**
 * Victim-selection policy: a deterministic ordering over Full blocks.
 * Lower (score, tieBreak, block) wins.
 */
class GcPolicy
{
  public:
    virtual ~GcPolicy() = default;

    /** Victim badness; lower is better. Must be a pure function. */
    virtual double score(const GcLineInfo &line) const = 0;

    /** Secondary key when scores tie exactly. */
    virtual std::uint64_t
    tieBreak(const GcLineInfo &line) const
    {
        return line.openSeq;
    }

    /** Stable registry name ("greedy", "cost-benefit", "fifo-log"). */
    virtual const char *name() const = 0;
};

/** Fewest valid pages; ties fall to the lowest block id. */
class GreedyGcPolicy : public GcPolicy
{
  public:
    double
    score(const GcLineInfo &line) const override
    {
        return static_cast<double>(line.validPages);
    }

    std::uint64_t
    tieBreak(const GcLineInfo &line) const override
    {
        return line.block;
    }

    const char *name() const override { return "greedy"; }
};

/** Wear-weighted cost/benefit; ties prefer the oldest fill. */
class CostBenefitGcPolicy : public GcPolicy
{
  public:
    double
    score(const GcLineInfo &line) const override
    {
        // cost (pages to migrate) over benefit (pages reclaimed, +1 so a
        // fully-valid block stays finite), scaled up with wear so heavily
        // cycled blocks become unattractive victims.
        const double cost = static_cast<double>(line.validPages);
        const double benefit =
            static_cast<double>(line.pagesPerBlock - line.validPages + 1);
        const double wear = 1.0 + static_cast<double>(line.eraseCount);
        return cost / benefit * wear;
    }

    const char *name() const override { return "cost-benefit"; }
};

/** Oldest fill first (true log order, robust to block reuse). */
class FifoLogGcPolicy : public GcPolicy
{
  public:
    double
    score(const GcLineInfo &line) const override
    {
        return static_cast<double>(line.openSeq);
    }

    std::uint64_t
    tieBreak(const GcLineInfo &line) const override
    {
        return line.block;
    }

    const char *name() const override { return "fifo-log"; }
};

/**
 * Instantiate a policy by registry name; fatal listing valid names.
 * "fifo" is accepted as an alias for "fifo-log".
 */
std::unique_ptr<GcPolicy> makeGcPolicy(const std::string &name);

/** Comma-separated list of registered policy names. */
const char *gcPolicyNames();

} // namespace aero

#endif // AERO_SSD_GC_HH
