/**
 * @file
 * Top-level simulated SSD: owns the event queue and the FTL, replays a
 * TraceStream (a synthetic generator, an `aero-trace/1` file or a
 * tenant mix), and exposes run metrics. This is the library's main
 * entry point for system-level experiments (see examples/quickstart.cpp).
 */

#ifndef AERO_SSD_SSD_HH
#define AERO_SSD_SSD_HH

#include <memory>
#include <utility>

#include "common/ring_fifo.hh"
#include "ssd/ftl.hh"
#include "workload/trace_io/stream.hh"

namespace aero
{

/**
 * Feeds trace arrivals into the FTL on its admission timer. Each firing
 * admits every record already due, then arms the timer for the next
 * future arrival — the queue holds at most one pump entry at a time.
 * The pump pulls from a TraceStream one record ahead, so replay memory
 * is the stream's (one chunk for FileTraceStream), never the trace's.
 * Lives on Ssd::run()'s stack; run() drains the queue before returning,
 * so no pump timer is left pending.
 *
 * With SLO throttling enabled (SloPolicy::Throttle / ThrottleWfq plus a
 * non-empty TenantSloSpec), admission additionally passes through
 * per-tenant token buckets: a record that would exceed its tenant's
 * sustained IOPS/bandwidth budget (beyond the configured burst) is
 * parked in that tenant's FIFO and re-admitted by the gate's release
 * timer at the bucket's refill tick — deferred,
 * never dropped, never reordered within the tenant. The buckets are
 * exact-integer GCRA cells (theoretical-arrival-time with a fractional
 * remainder over the rate), so refill ticks are deterministic at any
 * thread count. Tenants without budgets bypass the gate entirely; with
 * no spec configured the throttle path costs nothing.
 */
struct TracePump
{
    /** One GCRA cell: cost-units/second plus a TAT split into whole
     *  ticks and a fractional numerator over `rate` (exact integers,
     *  no drift). rate 0 disables the cell. */
    struct Bucket
    {
        std::uint64_t rate = 0;   //!< cost units admitted per second
        Tick burstTicks = 0;      //!< conformance tolerance, in ticks
        Tick tat = 0;             //!< theoretical arrival time, whole
        std::uint64_t tatFrac = 0; //!< + tatFrac/rate fractional ticks
    };

    /** Per-tenant admission gate: an IOPS cell (cost 1/request) and a
     *  bandwidth cell (cost = pages * pageKB), plus the FIFO of parked
     *  records awaiting refill. */
    struct TenantGate
    {
        Bucket iops;
        Bucket bw;
        RingFifo<std::pair<TraceRecord, Tick>> deferred; //!< + park tick
        Timer release;  //!< fires fireThrottled(tenant) at refill
        TracePump *pump = nullptr;
        TenantId tenant = 0;
    };

    Ftl *ftl = nullptr;
    EventQueue *eq = nullptr;
    TraceStream *stream = nullptr;
    TraceRecord pending;    //!< next record to admit (valid iff hasPending)
    bool hasPending = false;
    Tick base = 0;          //!< eq->now() when the replay started
    Timer admission;        //!< fires fire(); armed by Ssd::run()
    std::vector<TenantGate> gates;  //!< indexed by tenant; empty: no gate
    SsdMetrics *stats = nullptr;    //!< deferral accounting (throttle only)
    std::uint32_t pageKB = 16;      //!< bandwidth-cell cost per page

    /** Build the per-tenant gates from a parsed SLO spec. */
    void configureThrottle(const TenantSloSpec &spec,
                           std::uint32_t pageSizeKB, SsdMetrics &metrics);

    /** Admission-timer handler: admit the due records. */
    void fire();

    /** Release-timer handler: a tenant's bucket refilled — drain its
     *  deferred FIFO while records conform. */
    void fireThrottled(TenantId tenant);

    /** Are any records still parked in a tenant gate? */
    bool throttledPending() const;

  private:
    /** Route one due record through its tenant gate (or straight to the
     *  FTL when the tenant is ungated). */
    void admit(const TraceRecord &rec);
};

class Ssd
{
  public:
    /**
     * Build a drive: constructs chips, pre-ages them to cfg.initialPec,
     * and prefills the logical space to steady state. The placement
     * comes from `cache` when an earlier drive shared this one's
     * PlacementKey (ssd/placement.hh), and goes into it when not.
     */
    explicit Ssd(const SsdConfig &cfg,
                 PlacementCache &cache = PlacementCache::process());

    /**
     * Replay from a pull stream to completion (all requests serviced).
     * Only one record is resident at a time beyond the stream's own
     * buffering, so file and synthetic traces of any length replay in
     * O(chunk) memory. Can be called repeatedly; time continues
     * monotonically.
     */
    void run(TraceStream &stream);

    /** Replay a pre-built trace, for callers that replay one trace many
     *  times; the same admission path through a VectorTraceStream. */
    void run(const Trace &trace);

    SsdMetrics &metrics() { return ftlImpl->metrics(); }
    Ftl &ftl() { return *ftlImpl; }
    EventQueue &eventQueue() { return eq; }
    const SsdConfig &config() const { return cfg; }

  private:
    SsdConfig cfg;
    EventQueue eq;
    std::unique_ptr<Ftl> ftlImpl;
};

} // namespace aero

#endif // AERO_SSD_SSD_HH
