#include "sim/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ssd/channel.hh"
#include "ssd/chip_agent.hh"
#include "ssd/ftl.hh"
#include "ssd/ssd.hh"

namespace aero
{

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead == EventId::kNoSlot) {
        const auto base = static_cast<std::uint32_t>(slots.size());
        slots.resize(slots.size() + kChunkSize);
        ops.resize(slots.size());
        // Thread the fresh chunk onto the free list in reverse so slots
        // hand out in ascending index order.
        for (std::uint32_t i = kChunkSize; i-- > 0;)
            freeSlot(base + i);
    }
    const std::uint32_t slot = freeHead;
    freeHead = slots[slot].nextFree;
    return slot;
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    slots[slot].kind = EventKind::Dead;
    slots[slot].nextFree = freeHead;
    freeHead = slot;
}

void
EventQueue::scrubBack()
{
    while (!order.empty() &&
           slots[order.back().slot].kind == EventKind::Dead) {
        freeSlot(order.back().slot);
        order.pop_back();
    }
}

EventId
EventQueue::post(Tick when, EventKind kind)
{
    AERO_CHECK(when >= currentTick, "scheduling into the past: ", when,
               " < ", currentTick);
    const std::uint32_t slot = allocSlot();
    slots[slot].kind = kind;
    // The new event is the latest scheduled, so it fires after every
    // pending event at `when` or earlier: walk in from the back past
    // those, shifting each one place towards the back, and insert it
    // in front of them. (when, schedule order) is a strict total order,
    // so the firing order is a deterministic function of the
    // schedule/cancel call sequence.
    order.push_back(Pending{});
    std::size_t i = order.size() - 1;
    for (; i > 0 && order[i - 1].when <= when; --i)
        order[i] = order[i - 1];
    order[i] = Pending{when, slot};
    ++liveCount;
    peakLive = std::max(peakLive, liveCount);
    return EventId{slot, slots[slot].gen};
}

EventId
EventQueue::scheduleTimerAt(Tick when, TimerFn fn, void *ctx)
{
    const EventId id = post(when, EventKind::Timer);
    slots[id.slot].payload.timer = Event::TimerPayload{fn, ctx};
    return id;
}

EventId
EventQueue::scheduleChipOpAt(Tick when, ChipAgent &agent, const PageOp &op)
{
    const EventId id = post(when, EventKind::ChipOpComplete);
    slots[id.slot].payload.agent = Event::AgentPayload{&agent};
    ops[id.slot] = op;
    return id;
}

EventId
EventQueue::scheduleEraseSegmentAt(Tick when, ChipAgent &agent)
{
    const EventId id = post(when, EventKind::EraseSegmentDone);
    slots[id.slot].payload.agent = Event::AgentPayload{&agent};
    return id;
}

EventId
EventQueue::scheduleSuspendQuiesceAt(Tick when, ChipAgent &agent)
{
    const EventId id = post(when, EventKind::SuspendQuiesced);
    slots[id.slot].payload.agent = Event::AgentPayload{&agent};
    return id;
}

EventId
EventQueue::scheduleHostPageAt(Tick when, Ftl &ftl,
                               std::uint64_t request_id)
{
    const EventId id = post(when, EventKind::HostPageDone);
    slots[id.slot].payload.hostPage = Event::HostPagePayload{&ftl, request_id};
    return id;
}

EventId
EventQueue::scheduleTraceAdmitAt(Tick when, TracePump &pump)
{
    const EventId id = post(when, EventKind::TraceAdmit);
    slots[id.slot].payload.pump = Event::PumpPayload{&pump};
    return id;
}

EventId
EventQueue::scheduleTraceAdmitThrottledAt(Tick when, TracePump &pump,
                                          TenantId tenant)
{
    const EventId id = post(when, EventKind::TraceAdmitThrottled);
    slots[id.slot].payload.pumpTenant =
        Event::PumpTenantPayload{&pump, tenant};
    return id;
}

EventId
EventQueue::scheduleDieOpAt(Tick when, ChipAgent &agent)
{
    const EventId id = post(when, EventKind::DieOpComplete);
    slots[id.slot].payload.agent = Event::AgentPayload{&agent};
    return id;
}

EventId
EventQueue::scheduleChannelGrantAt(Tick when, Channel &channel)
{
    const EventId id = post(when, EventKind::ChannelGrant);
    slots[id.slot].payload.channel = Event::ChannelPayload{&channel};
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    // A default handle's kNoSlot is past every arena index too.
    if (id.slot >= slots.size())
        return false;
    Event &ev = slots[id.slot];
    if (ev.gen != id.gen || ev.kind == EventKind::Dead)
        return false;
    ev.kind = EventKind::Dead;
    ev.gen += 1;
    --liveCount;
    // Keep the back live so nextEventTick()/run() never see a corpse;
    // dead entries further in are recycled when they reach the back.
    scrubBack();
    return true;
}

bool
EventQueue::pendingEvent(EventId id) const
{
    if (id.slot >= slots.size())
        return false;
    const Event &ev = slots[id.slot];
    return ev.gen == id.gen && ev.kind != EventKind::Dead;
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
    while (!order.empty() && order.back().when <= until) {
        if (!step())
            break;
    }
    if (currentTick < until && until != kTickMax)
        currentTick = until;
}

bool
EventQueue::step()
{
    // scrubBack() in cancel() keeps the back live, so the earliest
    // entry is either dispatchable or the queue is empty.
    if (order.empty())
        return false;
    const Pending next = order.back();
    order.pop_back();
    scrubBack();
    --liveCount;
    AERO_CHECK(next.when >= currentTick, "event queue time went backwards");
    currentTick = next.when;
    ++processedCount;
    // Copy the tag and payload out and recycle the slot *before*
    // dispatching, so handlers that schedule immediately reuse it: the
    // steady-state arena stays at the peak pending-event count.
    Event &ev = slots[next.slot];
    const EventKind kind = ev.kind;
    const Event::Payload payload = ev.payload;
    ev.gen += 1;
    if (kind == EventKind::ChipOpComplete) {
        const PageOp op = ops[next.slot];
        freeSlot(next.slot);
        payload.agent.agent->onChipOpComplete(op);
        return true;
    }
    freeSlot(next.slot);
    dispatch(kind, payload);
    return true;
}

} // namespace aero
