/**
 * @file
 * The result records the gated benches journal and report, declared
 * once each (exp/record.hh): gc_contention's cell metrics, tenant_qos's
 * per-tenant rows and fig17's lifetimes at one RBER requirement.
 */

#ifndef AERO_BENCH_BENCH_RECORDS_HH
#define AERO_BENCH_BENCH_RECORDS_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "devchar/lifetime.hh"
#include "exp/record.hh"

namespace aero::bench
{

/** One gc_contention cell: what the reclamation knobs cost the host. */
struct GcCellResult
{
    double avgReadUs = 0.0;
    double p999Us = 0.0;
    double writeAmplification = 0.0;
    double gcWriteAmplification = 0.0;
    std::uint64_t gcMigratedPages = 0;
    std::uint64_t wlMigratedPages = 0;
    std::uint64_t wlInvocations = 0;
    std::uint64_t erases = 0;
    double maxChannelUtil = 0.0;
    double hostWaitUs = 0.0;
    double gcWaitUs = 0.0;

    static const Fields<GcCellResult> &
    fields()
    {
        using G = GcCellResult;
        static const Fields<G> table = {
            field("avg_read_us", &G::avgReadUs),
            field("p999_us", &G::p999Us),
            field("write_amplification", &G::writeAmplification),
            field("gc_write_amplification", &G::gcWriteAmplification),
            field("gc_migrated_pages", &G::gcMigratedPages),
            field("wl_migrated_pages", &G::wlMigratedPages),
            field("wl_invocations", &G::wlInvocations),
            field("erases", &G::erases),
            field("max_channel_util", &G::maxChannelUtil),
            field("host_wait_us", &G::hostWaitUs),
            field("gc_wait_us", &G::gcWaitUs),
        };
        return table;
    }
};

/** One tenant's read tail in one tenant_qos cell. */
struct TenantRow
{
    TenantId tenant = 0;
    std::string source;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    double avgReadUs = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;

    /** @name SLO mode only (written when slo is set) */
    /** @{ */
    bool slo = false;
    std::uint64_t throttleDeferrals = 0;
    double throttleDeferredMs = 0.0;
    /** The tenant has a p99 target (written when set). */
    bool targeted = false;
    std::uint64_t p99TargetUs = 0;
    bool p99Attained = false;
    /** @} */

    static const Fields<TenantRow> &
    fields()
    {
        using T = TenantRow;
        static const Fields<T> table = {
            field("tenant", &T::tenant),
            field("source", &T::source),
            field("reads", &T::reads),
            field("writes", &T::writes),
            field("avg_read_us", &T::avgReadUs),
            field("p99_us", &T::p99Us),
            field("p999_us", &T::p999Us),
            field("throttle_deferrals", &T::throttleDeferrals, &T::slo),
            field("throttle_deferred_ms", &T::throttleDeferredMs, &T::slo),
            field("p99_target_us", &T::p99TargetUs, &T::targeted),
            field("p99_attained", &T::p99Attained, &T::targeted),
        };
        return table;
    }
};

/** fig17's lifetimes under one RBER requirement, one per scheme. */
struct LifetimeRow
{
    LifetimeResult base;
    LifetimeResult cons;
    LifetimeResult aero;

    static const Fields<LifetimeRow> &
    fields()
    {
        static const Fields<LifetimeRow> table = {
            field("baseline", &LifetimeRow::base),
            field("aero_cons", &LifetimeRow::cons),
            field("aero", &LifetimeRow::aero),
        };
        return table;
    }
};

} // namespace aero::bench

#endif // AERO_BENCH_BENCH_RECORDS_HH
