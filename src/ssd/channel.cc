#include "ssd/channel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ssd/chip_agent.hh"

namespace aero
{

namespace
{

bool
isHost(BusClass cls)
{
    return cls == BusClass::HostRead || cls == BusClass::HostWrite;
}

} // namespace

void
BusQueue::push(BusWait &w)
{
    AERO_CHECK(!w.queued, "an agent requested the bus while it waits");
    w.queued = true;
    w.next = nullptr;
    List &l = lists[static_cast<int>(w.cls)];
    (l.tail != nullptr ? l.tail->next : l.head) = &w;
    l.tail = &w;
}

BusWait *
BusQueue::pop(bool wfq)
{
    for (List &l : lists) {
        if (l.head == nullptr)
            continue;
        // FIFO is the head; WFQ scans for the lowest (tag, seq), keeping
        // the pick's predecessor to unlink it.
        BusWait *prev = nullptr;
        BusWait *pick = l.head;
        if (wfq && isHost(pick->cls)) {
            for (BusWait *p = l.head; p->next != nullptr; p = p->next) {
                const BusWait *q = p->next;
                if (q->tag < pick->tag ||
                    (q->tag == pick->tag && q->seq < pick->seq)) {
                    prev = p;
                    pick = p->next;
                }
            }
        }
        (prev != nullptr ? prev->next : l.head) = pick->next;
        if (l.tail == pick)
            l.tail = prev;
        pick->queued = false;
        return pick;
    }
    return nullptr;
}

void
Channel::init(int index, EventQueue *eq_, SsdMetrics *metrics_)
{
    idx = index;
    eq = eq_;
    metrics = metrics_;
    grantDone.init<Channel, &Channel::onGrantDone>(this);
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
    BusWait &w = agent.busWait;
    w.since = eq->now();
    w.seq = nextWaiterSeq++;
    w.tag = 0;
    w.tenant = tenant;
    w.cls = cls;
    if (wfq && isHost(cls)) {
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
        grantTo(w);
        return;
    }
    waiters.push(w);
}

void
Channel::grantTo(BusWait &w)
{
    const Tick now = eq->now();
    const Tick wait = now - w.since;
    const bool host = isHost(w.cls);
    switch (w.cls) {
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
    eq->arm(release, grantDone);
}

void
Channel::onGrantDone()
{
    owned = false;
    if (BusWait *w = waiters.pop(wfq))
        grantTo(*w);
}

} // namespace aero
