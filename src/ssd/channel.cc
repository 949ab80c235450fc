#include "ssd/channel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ssd/chip_agent.hh"

namespace aero
{

void
Channel::init(int index, EventQueue *eq_, SsdMetrics *metrics_)
{
    idx = index;
    eq = eq_;
    metrics = metrics_;
}

void
Channel::enableWfq(std::vector<std::uint32_t> weights_)
{
    wfq = true;
    weights = std::move(weights_);
}

std::uint64_t
Channel::weightOf(TenantId tenant) const
{
    if (tenant < weights.size() && weights[tenant] != 0)
        return weights[tenant];
    return 1;
}

void
Channel::request(ChipAgent &agent, BusClass cls, TenantId tenant)
{
    AERO_CHECK(eq != nullptr, "channel used before init()");
    Waiter w{&agent, eq->now(), 0, nextWaiterSeq++, tenant};
    if (wfq &&
        (cls == BusClass::HostRead || cls == BusClass::HostWrite)) {
        // SFQ: stamp the virtual start time at *arrival*, even for an
        // immediate grant, so a backlogged tenant's tags keep advancing
        // relative to everyone else's.
        if (tenant >= finishTag.size())
            finishTag.resize(static_cast<std::size_t>(tenant) + 1, 0);
        const std::uint64_t start = std::max(vtime, finishTag[tenant]);
        finishTag[tenant] = start + kWfqQuantum / weightOf(tenant);
        w.tag = start;
    }
    if (!owned) {
        grantTo(w, cls);
        return;
    }
    waiters[static_cast<int>(cls)].push_back(w);
}

void
Channel::grantTo(const Waiter &w, BusClass cls)
{
    const Tick now = eq->now();
    const Tick wait = now - w.since;
    const bool host =
        cls == BusClass::HostRead || cls == BusClass::HostWrite;
    switch (cls) {
      case BusClass::HostRead:
      case BusClass::HostWrite:
        metrics->hostChannelWaitTicks += wait;
        metrics->hostChannelGrants += 1;
        break;
      case BusClass::GcCopy:
        metrics->gcChannelWaitTicks += wait;
        metrics->gcChannelGrants += 1;
        break;
      case BusClass::EraseCmd:
        metrics->eraseChannelWaitTicks += wait;
        metrics->eraseChannelGrants += 1;
        break;
    }
    if (wfq && host)
        vtime = std::max(vtime, w.tag);
    const Tick release = w.agent->channelGranted();
    AERO_CHECK(release >= now, "channel released before grant");
    if (static_cast<std::size_t>(idx) < metrics->channelBusyTicks.size())
        metrics->channelBusyTicks[idx] += release - now;
    if (wfq && host && metrics->tenantTrackingEnabled() &&
        w.tenant < metrics->tenants.size()) {
        metrics->tenants[w.tenant].channelGrants += 1;
        metrics->tenants[w.tenant].channelHeldTicks += release - now;
    }
    owned = true;
    eq->scheduleChannelGrantAt(release, *this);
}

void
Channel::onGrantDone()
{
    owned = false;
    for (auto &q : waiters) {
        if (q.empty())
            continue;
        const BusClass cls =
            static_cast<BusClass>(static_cast<int>(&q - waiters.data()));
        // WFQ host classes: grant the lowest virtual start tag, arrival
        // order on ties. FIFO otherwise (seq is monotone, so picking the
        // minimum seq *is* the front).
        std::size_t pick = 0;
        if (wfq &&
            (cls == BusClass::HostRead || cls == BusClass::HostWrite)) {
            for (std::size_t i = 1; i < q.size(); ++i) {
                if (q[i].tag < q[pick].tag ||
                    (q[i].tag == q[pick].tag && q[i].seq < q[pick].seq))
                    pick = i;
            }
        }
        const Waiter w = q[pick];
        q.removeAt(pick);
        grantTo(w, cls);
        return;
    }
}

} // namespace aero
