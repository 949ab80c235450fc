#include "erase/scheme.hh"

#include "common/logging.hh"

namespace aero
{

void
EraseSession::commitErase(NandChip &nand, BlockId blk)
{
    const EraseCommit commit = nand.finishErase(blk);
    result.complete = commit.complete;
    result.leftoverSlots = commit.leftoverSlots;
    result.damage = commit.damage;
    result.slotsApplied = commit.slotsApplied;
    result.maxLevel = commit.maxLevel;
}

EraseOutcome
runEraseToCompletion(EraseSession &session)
{
    EraseSegment seg;
    int guard = 0;
    while (session.nextSegment(seg)) {
        AERO_CHECK(++guard < 64, "erase session failed to terminate");
        if (seg.last)
            break;
    }
    return session.outcome();
}

EraseOutcome
eraseNow(EraseScheme &scheme, BlockId id)
{
    auto session = scheme.begin(id);
    return runEraseToCompletion(*session);
}

} // namespace aero
