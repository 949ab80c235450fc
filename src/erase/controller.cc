#include "erase/scheme.hh"

#include "common/logging.hh"

namespace aero
{

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
