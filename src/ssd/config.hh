/**
 * @file
 * Simulated-SSD configuration, mirroring the paper's Table 2. Two presets:
 * paper() is the full 1-TB drive; bench() is a topology-identical,
 * capacity-reduced drive so the 11-workload x 3-PEC x 5-scheme sweep runs
 * in minutes while preserving the contention behaviour that drives read
 * tail latency (same channel/chip/plane counts, same timings, same
 * over-provisioning ratio).
 */

#ifndef AERO_SSD_CONFIG_HH
#define AERO_SSD_CONFIG_HH

#include "erase/scheme.hh"
#include "nand/nand_chip.hh"
#include "ssd/gc.hh"
#include "ssd/wear_level.hh"
#include "workload/trace_io/tenant.hh"

namespace aero
{

/** Erase-suspension policy (section 7.3 and Fig. 15). */
enum class SuspensionMode
{
    None,         //!< reads wait for the ongoing erase *loop* to finish
    MidSegment,   //!< practical erase suspension: preempt within a loop
};

inline NameTable<SuspensionMode>
nameTable(SuspensionMode)
{
    static constexpr NamedValue<SuspensionMode> rows[] = {
        {"none", SuspensionMode::None},
        {"mid-segment", SuspensionMode::MidSegment},
        {"off", SuspensionMode::None},
        {"on", SuspensionMode::MidSegment},
    };
    return {"suspension mode", rows};
}

/**
 * Channel/die arbitration model (PR 8).
 *
 * Legacy is the original closed-form reservation: a transfer claims the
 * channel with `busyUntil = max(ready, busyUntil) + xfer` arithmetic, so
 * contention is resolved at issue time and nothing ever queues. Queued
 * models the bus explicitly: transfers and erase command issue wait in
 * per-channel priority FIFOs (host reads > host writes > GC copies >
 * erase commands) and are granted by ChannelGrant events, so host and
 * reclamation traffic genuinely contend and the wait is measurable
 * (SsdMetrics host/GC channel-wait counters). Legacy stays the default:
 * every pre-PR-8 golden artifact is bit-identical under it.
 */
enum class Arbitration
{
    Legacy,   //!< closed-form busyUntil reservation (default)
    Queued,   //!< event-driven per-channel grant queues
};

inline NameTable<Arbitration>
nameTable(Arbitration)
{
    static constexpr NamedValue<Arbitration> rows[] = {
        {"legacy", Arbitration::Legacy},
        {"queued", Arbitration::Queued},
    };
    return {"arbitration mode", rows};
}

/** enumName() of an arbitration mode. */
inline const char *
arbitrationName(Arbitration mode)
{
    return enumName(mode);
}

/**
 * Per-tenant SLO enforcement policy (PR 10). `Throttle` gates trace
 * admission through per-tenant token buckets (TracePump defers
 * over-budget requests to the bucket refill tick — never drops, never
 * reorders within a tenant). `Wfq` arbitrates the queued channel's
 * host classes by per-tenant start-time-fair virtual tags weighted by
 * TenantSlo::weight; it composes with — never overrides — the
 * HostRead > HostWrite > GcCopy > EraseCmd class priorities, and so
 * requires Arbitration::Queued. None is the default: enforcement off,
 * every pre-PR-10 golden artifact bit-identical.
 */
enum class SloPolicy
{
    None,         //!< accounting only (default)
    Throttle,     //!< token-bucket admission throttling
    Wfq,          //!< weighted-fair channel scheduling
    ThrottleWfq,  //!< both
};

inline NameTable<SloPolicy>
nameTable(SloPolicy)
{
    static constexpr NamedValue<SloPolicy> rows[] = {
        {"none", SloPolicy::None},
        {"throttle", SloPolicy::Throttle},
        {"wfq", SloPolicy::Wfq},
        {"throttle+wfq", SloPolicy::ThrottleWfq},
    };
    return {"SLO policy", rows};
}

/** Does the policy include token-bucket admission throttling? */
constexpr bool
sloPolicyThrottles(SloPolicy policy)
{
    return policy == SloPolicy::Throttle ||
           policy == SloPolicy::ThrottleWfq;
}

/** Does the policy include weighted-fair channel scheduling? */
constexpr bool
sloPolicyWeights(SloPolicy policy)
{
    return policy == SloPolicy::Wfq || policy == SloPolicy::ThrottleWfq;
}

struct SsdConfig
{
    /** @name Topology (Table 2) */
    /** @{ */
    int channels = 8;
    int chipsPerChannel = 2;
    ChipGeometry geometry{4, 497, 2112};
    std::uint32_t pageSizeKB = 16;
    double opRatio = 0.20;           //!< over-provisioning
    ChipType chipType = ChipType::Tlc3d48L;
    /** @} */

    /** @name Erase scheme under test */
    /** @{ */
    SchemeKind scheme = SchemeKind::Baseline;
    SchemeOptions schemeOptions;
    /** @} */

    /** @name Timing */
    /** @{ */
    Tick channelXferPerPage = 13 * kUs;  //!< 16 KiB over ~1.2 GB/s ONFI
    Tick hostOverhead = 5 * kUs;         //!< NVMe/PCIe + FTL fixed cost
    /** Queued arbitration: channel time to issue one erase command. */
    Tick channelCmdOverhead = 1 * kUs;
    /** @} */

    /** @name Scheduling */
    /** @{ */
    SuspensionMode suspension = SuspensionMode::MidSegment;
    Arbitration arbitration = Arbitration::Legacy;
    /** Time to quiesce the erase voltage before the chip is usable. */
    Tick suspendEntryLatency = 60 * kUs;
    Tick suspendResumeOverhead = 100 * kUs;
    int gcLowWatermark = 3;    //!< free blocks/plane that trigger GC
    int gcHighWatermark = 5;   //!< free blocks/plane where GC stops
    GcPolicy gcPolicy = GcPolicy::Greedy;  //!< victim selection
    WearLevel wearLevel = WearLevel::None;  //!< ssd/wear_level.hh
    /** Static WL: erase-count spread that triggers cold migration. */
    int wlEraseDelta = 8;
    SloPolicy sloPolicy = SloPolicy::None;  //!< tenant SLO enforcement
    /** Per-tenant budgets/weights/targets; tenants the spec does not
     *  name run unthrottled with weight 1. Ignored when sloPolicy is
     *  None or the spec is empty. */
    TenantSloSpec slo;
    /** @} */

    /** @name Conditioning */
    /** @{ */
    double initialPec = 0.0;   //!< pre-age all blocks to this PEC
    /** Logical space written before the run, in [0, 1]. */
    double prefillFraction = 1.0;
    /**
     * Random overwrites (fraction of logical pages; finite, >= 0) applied
     * functionally after prefill, with inline GC, so timed runs start
     * from a steady-state dirty drive whose planes sit at the GC
     * watermark.
     */
    double warmupOverwriteFraction = 0.3;
    std::uint64_t seed = 2024;
    /** @} */

    /** Planes one die may have (real dies have 2 to 6). */
    static constexpr int kMaxPlanesPerDie = 8;

    /** @name Derived quantities */
    /** @{ */
    int totalChips() const { return channels * chipsPerChannel; }
    int blocksPerChip() const { return geometry.totalBlocks(); }
    std::uint64_t
    physicalPages() const
    {
        return static_cast<std::uint64_t>(totalChips()) *
               blocksPerChip() * geometry.pagesPerBlock;
    }
    std::uint64_t
    logicalPages() const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(physicalPages()) * (1.0 - opRatio));
    }
    std::uint64_t
    capacityBytes() const
    {
        return logicalPages() * pageSizeKB * kKiB;
    }
    /** @} */

    /** Full Table 2 drive: 1024 GB logical. */
    static SsdConfig paper();
    /** Scaled drive (~13 GB logical) for tests and benches. */
    static SsdConfig bench();
    /** Tiny drive for unit tests. */
    static SsdConfig tiny();

    /**
     * The one drive-config check. Fatal on a non-positive geometry
     * count, more than kMaxPlanesPerDie planes, a drive of
     * PageMapping::kNoEntry (2^32 - 1) or more physical pages (counted
     * saturating, so no int product can wrap under the limit), a
     * conditioning fraction out of range, or SLO weighting without
     * queued arbitration. Ftl runs it before sizing any table, and
     * SweepSpec::validate() runs it on every point's drive before a
     * sweep simulates anything.
     * @return *this, so a mem-initializer can validate as it copies.
     */
    const SsdConfig &validate() const;

    /** Human-readable Table 2 style summary. */
    std::string summary() const;
};

} // namespace aero

#endif // AERO_SSD_CONFIG_HH
