#include "sim/event_queue.hh"

#include "common/logging.hh"
#include "ssd/channel.hh"
#include "ssd/chip_agent.hh"
#include "ssd/ftl.hh"
#include "ssd/ssd.hh"

namespace aero
{

Event *
EventQueue::slotAt(std::uint32_t slot) const
{
    return &chunks[slot / kChunkSize][slot % kChunkSize];
}

PageOp &
EventQueue::opAt(std::uint32_t slot) const
{
    return opChunks[slot / kChunkSize][slot % kChunkSize];
}

Event *
EventQueue::allocSlot()
{
    if (!freeHead) {
        auto chunk = std::make_unique<Event[]>(kChunkSize);
        const auto base = static_cast<std::uint32_t>(slotCount);
        // Thread the fresh chunk onto the freelist in reverse so slots
        // hand out in ascending index order.
        for (std::size_t i = kChunkSize; i-- > 0;) {
            chunk[i].slot = base + static_cast<std::uint32_t>(i);
            chunk[i].sibling = freeHead;
            freeHead = &chunk[i];
        }
        chunks.push_back(std::move(chunk));
        opChunks.push_back(std::make_unique<PageOp[]>(kChunkSize));
        slotCount += kChunkSize;
    }
    Event *ev = freeHead;
    freeHead = ev->sibling;
    ev->child = nullptr;
    ev->sibling = nullptr;
    return ev;
}

void
EventQueue::freeSlot(Event *ev)
{
    ev->kind = EventKind::Dead;
    ev->child = nullptr;
    ev->sibling = freeHead;
    freeHead = ev;
}

Event *
EventQueue::merge(Event *a, Event *b)
{
    if (!a)
        return b;
    if (!b)
        return a;
    // Strict (when, seq) order: seq ties are impossible, so the merge —
    // and therefore the firing order — is a deterministic function of
    // the schedule/cancel call sequence.
    if (b->when < a->when || (b->when == a->when && b->seq < a->seq))
        std::swap(a, b);
    b->sibling = a->child;
    a->child = b;
    return a;
}

Event *
EventQueue::mergePairs(Event *list)
{
    if (!list)
        return nullptr;
    // Standard two-pass pairing: merge adjacent pairs left to right,
    // then fold the pairs right to left.
    Event *paired = nullptr;
    while (list) {
        Event *a = list;
        Event *b = a->sibling;
        list = b ? b->sibling : nullptr;
        a->sibling = nullptr;
        if (b)
            b->sibling = nullptr;
        Event *m = merge(a, b);
        m->sibling = paired;
        paired = m;
    }
    Event *result = paired;
    paired = paired->sibling;
    result->sibling = nullptr;
    while (paired) {
        Event *next = paired->sibling;
        paired->sibling = nullptr;
        result = merge(result, paired);
        paired = next;
    }
    return result;
}

void
EventQueue::scrubRoot()
{
    while (root && root->kind == EventKind::Dead) {
        Event *dead = root;
        root = mergePairs(dead->child);
        freeSlot(dead);
    }
}

Event *
EventQueue::post(Tick when, EventKind kind)
{
    AERO_CHECK(when >= currentTick, "scheduling into the past: ", when,
               " < ", currentTick);
    Event *ev = allocSlot();
    ev->when = when;
    ev->seq = nextSeq++;
    ev->kind = kind;
    root = merge(root, ev);
    ++liveCount;
    return ev;
}

EventId
EventQueue::scheduleTimerAt(Tick when, TimerFn fn, void *ctx)
{
    Event *ev = post(when, EventKind::Timer);
    ev->payload.timer = Event::TimerPayload{fn, ctx};
    return EventId{ev->slot, ev->gen};
}

EventId
EventQueue::scheduleChipOpAt(Tick when, ChipAgent &agent, const PageOp &op)
{
    Event *ev = post(when, EventKind::ChipOpComplete);
    ev->payload.agent = Event::AgentPayload{&agent};
    opAt(ev->slot) = op;
    return EventId{ev->slot, ev->gen};
}

EventId
EventQueue::scheduleEraseSegmentAt(Tick when, ChipAgent &agent)
{
    Event *ev = post(when, EventKind::EraseSegmentDone);
    ev->payload.agent = Event::AgentPayload{&agent};
    return EventId{ev->slot, ev->gen};
}

EventId
EventQueue::scheduleSuspendQuiesceAt(Tick when, ChipAgent &agent)
{
    Event *ev = post(when, EventKind::SuspendQuiesced);
    ev->payload.agent = Event::AgentPayload{&agent};
    return EventId{ev->slot, ev->gen};
}

EventId
EventQueue::scheduleHostPageAt(Tick when, Ftl &ftl,
                               std::uint64_t request_id)
{
    Event *ev = post(when, EventKind::HostPageDone);
    ev->payload.hostPage = Event::HostPagePayload{&ftl, request_id};
    return EventId{ev->slot, ev->gen};
}

EventId
EventQueue::scheduleTraceAdmitAt(Tick when, TracePump &pump)
{
    Event *ev = post(when, EventKind::TraceAdmit);
    ev->payload.pump = Event::PumpPayload{&pump};
    return EventId{ev->slot, ev->gen};
}

EventId
EventQueue::scheduleTraceAdmitThrottledAt(Tick when, TracePump &pump,
                                          TenantId tenant)
{
    Event *ev = post(when, EventKind::TraceAdmitThrottled);
    ev->payload.pumpTenant = Event::PumpTenantPayload{&pump, tenant};
    return EventId{ev->slot, ev->gen};
}

EventId
EventQueue::scheduleDieOpAt(Tick when, ChipAgent &agent)
{
    Event *ev = post(when, EventKind::DieOpComplete);
    ev->payload.agent = Event::AgentPayload{&agent};
    return EventId{ev->slot, ev->gen};
}

EventId
EventQueue::scheduleChannelGrantAt(Tick when, Channel &channel)
{
    Event *ev = post(when, EventKind::ChannelGrant);
    ev->payload.channel = Event::ChannelPayload{&channel};
    return EventId{ev->slot, ev->gen};
}

bool
EventQueue::cancel(EventId id)
{
    if (id.slot == EventId::kNoSlot || id.slot >= slotCount)
        return false;
    Event *ev = slotAt(id.slot);
    if (ev->gen != id.gen || ev->kind == EventKind::Dead)
        return false;
    ev->kind = EventKind::Dead;
    ev->gen += 1;
    --liveCount;
    // Keep the root live so nextEventTick()/run() never see a corpse;
    // dead slots deeper in the heap are recycled when they surface.
    scrubRoot();
    return true;
}

bool
EventQueue::pendingEvent(EventId id) const
{
    if (id.slot == EventId::kNoSlot || id.slot >= slotCount)
        return false;
    const Event *ev = slotAt(id.slot);
    return ev->gen == id.gen && ev->kind != EventKind::Dead;
}

void
EventQueue::dispatch(EventKind kind, const Event::Payload &payload)
{
    switch (kind) {
      case EventKind::Timer:
        payload.timer.fn(payload.timer.ctx);
        break;
      case EventKind::ChipOpComplete:
        // Handled inline in step() (the op must be copied out of the
        // side arena before the slot recycles).
        AERO_PANIC("ChipOpComplete reached the generic dispatcher");
      case EventKind::EraseSegmentDone:
        payload.agent.agent->onEraseSegmentDone();
        break;
      case EventKind::SuspendQuiesced:
        payload.agent.agent->onSuspendQuiesced();
        break;
      case EventKind::HostPageDone:
        payload.hostPage.ftl->onHostPageDone(payload.hostPage.requestId);
        break;
      case EventKind::TraceAdmit:
        payload.pump.pump->fire();
        break;
      case EventKind::TraceAdmitThrottled:
        payload.pumpTenant.pump->fireThrottled(
            static_cast<TenantId>(payload.pumpTenant.tenant));
        break;
      case EventKind::DieOpComplete:
        payload.agent.agent->onDieOpComplete();
        break;
      case EventKind::ChannelGrant:
        payload.channel.channel->onGrantDone();
        break;
      case EventKind::Dead:
        AERO_PANIC("dispatching a dead event");
    }
}

void
EventQueue::run(Tick until)
{
    while (root && root->when <= until) {
        if (!step())
            break;
    }
    if (currentTick < until && until != kTickMax)
        currentTick = until;
}

bool
EventQueue::step()
{
    // scrubRoot() in cancel() keeps the root live, so the minimum is
    // either dispatchable or the queue is empty.
    Event *ev = root;
    if (!ev)
        return false;
    root = mergePairs(ev->child);
    scrubRoot();
    --liveCount;
    AERO_CHECK(ev->when >= currentTick, "event queue time went backwards");
    currentTick = ev->when;
    ++processedCount;
    // Copy the tag and payload out and recycle the slot *before*
    // dispatching, so handlers that schedule immediately reuse it: the
    // steady-state arena stays at the peak pending-event count.
    const EventKind kind = ev->kind;
    const Event::Payload payload = ev->payload;
    if (kind == EventKind::ChipOpComplete) {
        const PageOp op = opAt(ev->slot);
        ev->gen += 1;
        freeSlot(ev);
        payload.agent.agent->onChipOpComplete(op);
        return true;
    }
    ev->gen += 1;
    freeSlot(ev);
    dispatch(kind, payload);
    return true;
}

} // namespace aero
