/**
 * @file
 * Wear-leveling policies, a sweep-grid axis like the GC policy and the
 * erase scheme:
 *
 *  - none:    the original behaviour, bit for bit. Free blocks are
 *             reused LIFO and no data ever moves for wear reasons.
 *  - dynamic: wear-aware allocation — every time a plane opens a fresh
 *             block it takes the least-erased free block instead of the
 *             most recently freed one, spreading writes without any
 *             extra copies (a branch in BlockManager).
 *  - static:  cold-data migration — after a GC erase, if the plane's
 *             erase-count spread reaches SsdConfig::wlEraseDelta, the
 *             least-worn Full block (cold data pinning a young block) is
 *             relocated and erased so it rejoins the rotation. Costs
 *             copies (tracked as wlMigratedPages) but levels even
 *             never-overwritten data. The FTL asks
 *             BlockManager::pickColdVictim().
 */

#ifndef AERO_SSD_WEAR_LEVEL_HH
#define AERO_SSD_WEAR_LEVEL_HH

#include "common/names.hh"

namespace aero
{

/** Wear-leveling policy (see the file comment). */
enum class WearLevel
{
    None,
    Static,
    Dynamic,
};

inline NameTable<WearLevel>
nameTable(WearLevel)
{
    static constexpr NamedValue<WearLevel> rows[] = {
        {"none", WearLevel::None},
        {"static", WearLevel::Static},
        {"dynamic", WearLevel::Dynamic},
    };
    return {"wear-level policy", rows};
}

} // namespace aero

#endif // AERO_SSD_WEAR_LEVEL_HH
