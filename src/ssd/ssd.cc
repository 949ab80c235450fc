#include "ssd/ssd.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace aero
{

Ssd::Ssd(const SsdConfig &cfg_, PlacementCache &cache) : cfg(cfg_)
{
    ftlImpl = std::make_unique<Ftl>(cfg, eq);
    ftlImpl->condition(cache);
}

void
Ssd::run(const Trace &trace)
{
    // Each record completes as one latency sample: size the trackers
    // exactly, so they neither double nor copy mid-replay.
    SsdMetrics &m = metrics();
    std::uint64_t reads = 0;
    std::vector<std::uint64_t> tenantReads(m.tenants.size(), 0);
    std::vector<std::uint64_t> tenantWrites(m.tenants.size(), 0);
    for (const TraceRecord &rec : trace) {
        const bool read = rec.op == IoOp::Read;
        reads += read;
        if (rec.tenant < m.tenants.size())
            (read ? tenantReads : tenantWrites)[rec.tenant] += 1;
    }
    const auto grow = [](PercentileTracker &t, std::uint64_t samples) {
        t.reserve(t.count() + samples);
    };
    grow(m.readLatency, reads);
    grow(m.writeLatency, trace.size() - reads);
    for (std::size_t t = 0; t < m.tenants.size(); ++t) {
        grow(m.tenants[t].readLatency, tenantReads[t]);
        grow(m.tenants[t].writeLatency, tenantWrites[t]);
    }
    VectorTraceStream stream(trace);
    run(stream);
}

void
Ssd::run(TraceStream &stream)
{
    // Feed arrivals incrementally, keeping the queue small. The queue is
    // always drained before returning, so the stack pump cannot dangle.
    TracePump pump{};
    pump.ftl = ftlImpl.get();
    pump.eq = &eq;
    pump.stream = &stream;
    pump.base = eq.now();
    if (sloPolicyThrottles(cfg.sloPolicy) && !cfg.slo.empty())
        pump.configureThrottle(cfg.slo, cfg.pageSizeKB, metrics());
    pump.hasPending = stream.next(pump.pending);
    if (!pump.hasPending)
        return;
    pump.admission.init<TracePump, &TracePump::fire>(&pump);
    eq.arm(pump.base + pump.pending.arrival, pump.admission);
    eq.run();
    AERO_CHECK(ftlImpl->drained(), "event queue drained with in-flight "
               "requests: FTL lost a completion");
    AERO_CHECK(!pump.throttledPending(), "event queue drained with "
               "throttled requests still parked: a bucket refill was lost");
    metrics().simulatedTime = eq.now();
}

namespace
{

/** Earliest tick at which the cell conforms (0 when it already does). */
Tick
bucketReadyAt(const TracePump::Bucket &b)
{
    // GCRA conformance at time t: TAT - t <= burst. The fractional
    // remainder rounds the release tick up so we never admit early.
    if (b.rate == 0 || b.tat <= b.burstTicks)
        return 0;
    return b.tat - b.burstTicks + (b.tatFrac != 0 ? 1 : 0);
}

/** Charge `cost` units against the cell at time `now`. */
void
bucketCharge(TracePump::Bucket &b, std::uint64_t cost, Tick now)
{
    if (b.rate == 0)
        return;
    if (b.tat < now) {
        // Idle credit beyond the burst tolerance does not accumulate.
        b.tat = now;
        b.tatFrac = 0;
    }
    // Exact increment: cost * kSec / rate ticks, carried as whole ticks
    // plus a numerator over rate. 128-bit because cost * 1e9 overflows.
    const unsigned __int128 numer =
        static_cast<unsigned __int128>(cost) * kSec + b.tatFrac;
    b.tat += static_cast<Tick>(numer / b.rate);
    b.tatFrac = static_cast<std::uint64_t>(numer % b.rate);
}

/** Burst tolerance in ticks for `burst` cost units at `rate`/s. */
Tick
bucketBurstTicks(std::uint64_t burst, std::uint64_t rate)
{
    const unsigned __int128 t =
        static_cast<unsigned __int128>(burst) * kSec / rate;
    return t > kTickMax ? kTickMax : static_cast<Tick>(t);
}

std::uint64_t
recordBwCost(const TraceRecord &rec, std::uint32_t pageKB)
{
    return static_cast<std::uint64_t>(rec.pages) * pageKB;
}

} // namespace

void
TracePump::configureThrottle(const TenantSloSpec &spec,
                             std::uint32_t pageSizeKB, SsdMetrics &metrics)
{
    stats = &metrics;
    pageKB = pageSizeKB;
    // Built in place: a gate's release timer names the gate.
    gates = std::vector<TenantGate>(static_cast<std::size_t>(
                                        spec.maxTenant()) + 1);
    for (std::size_t t = 0; t < gates.size(); ++t) {
        TenantGate &g = gates[t];
        g.pump = this;
        g.tenant = static_cast<TenantId>(t);
        g.release.init(
            [](void *gate) {
                auto *self = static_cast<TenantGate *>(gate);
                self->pump->fireThrottled(self->tenant);
            },
            &g);
    }
    for (const TenantSlo &t : spec.tenants) {
        TenantGate &g = gates[t.tenant];
        if (t.iopsBudget != 0) {
            g.iops.rate = t.iopsBudget;
            g.iops.burstTicks = bucketBurstTicks(t.burst, t.iopsBudget);
        }
        if (t.bwBudgetKBps != 0) {
            g.bw.rate = t.bwBudgetKBps;
            g.bw.burstTicks =
                bucketBurstTicks(t.burst * pageKB, t.bwBudgetKBps);
        }
    }
}

bool
TracePump::throttledPending() const
{
    for (const TenantGate &g : gates)
        if (!g.deferred.empty())
            return true;
    return false;
}

void
TracePump::admit(const TraceRecord &rec)
{
    TenantGate *g = rec.tenant < gates.size() ? &gates[rec.tenant] : nullptr;
    if (g != nullptr && (g->iops.rate != 0 || g->bw.rate != 0)) {
        const Tick now = eq->now();
        // A non-empty FIFO means earlier records of this tenant are
        // still parked; queue behind them to preserve arrival order.
        if (!g->deferred.empty()) {
            g->deferred.push_back({rec, now});
            return;
        }
        const Tick ready =
            std::max(bucketReadyAt(g->iops), bucketReadyAt(g->bw));
        if (ready > now) {
            g->deferred.push_back({rec, now});
            eq->arm(ready, g->release);
            return;
        }
        bucketCharge(g->iops, 1, now);
        bucketCharge(g->bw, recordBwCost(rec, pageKB), now);
    }
    ftl->submit(rec);
}

void
TracePump::fireThrottled(TenantId tenant)
{
    TenantGate &g = gates[tenant];
    const Tick now = eq->now();
    while (!g.deferred.empty()) {
        const Tick ready =
            std::max(bucketReadyAt(g.iops), bucketReadyAt(g.bw));
        if (ready > now) {
            eq->arm(ready, g.release);
            return;
        }
        const TraceRecord rec = g.deferred.front().first;
        const Tick parked = g.deferred.front().second;
        g.deferred.pop_front();
        bucketCharge(g.iops, 1, now);
        bucketCharge(g.bw, recordBwCost(rec, pageKB), now);
        stats->throttleDeferrals += 1;
        stats->throttleDeferredTicks += now - parked;
        if (stats->tenantTrackingEnabled() && rec.tenant < stats->tenants.size()) {
            stats->tenants[rec.tenant].throttleDeferrals += 1;
            stats->tenants[rec.tenant].throttleDeferredTicks += now - parked;
        }
        ftl->submit(rec);
    }
}

void
TracePump::fire()
{
    for (;;) {
        admit(pending);
        hasPending = stream->next(pending);
        if (!hasPending)
            return;
        const Tick due_raw = base + pending.arrival;
        const Tick due = due_raw < eq->now() ? eq->now() : due_raw;
        // Admit the next record inline only when that is provably
        // identical to the one-event-per-record pump this replaced: a
        // pump timer armed at now() with nothing else pending at now()
        // would fire immediately next anyway.
        if (due <= eq->now() && eq->nextEventTick() > eq->now())
            continue;
        eq->arm(due, admission);
        return;
    }
}

} // namespace aero
