/**
 * @file
 * Discrete-event simulation kernel: a monotonically advancing clock over
 * a time-ordered queue of *tagged* events (see sim/event.hh). Events
 * scheduled for the same tick fire in scheduling order, which keeps
 * simulations deterministic.
 *
 * Storage is an arena of slots recycled through a free list, so the hot
 * path never heap-allocates. Ordering is a vector of (when, slot)
 * entries sorted latest-first, so the earliest event is at the back:
 * pop is pop_back(), and insert walks in from the back, shifting the
 * entries that fire first. A new event fires after every pending event
 * at its tick (it was scheduled last), so the walk passes exactly the
 * entries with `when` <= its own, and no sequence number is stored.
 * Cancellation is explicit: every schedule call returns an EventId that
 * cancel() invalidates lazily (dead entries are skipped and their slots
 * recycled when they reach the back).
 *
 * Insert is O(n) in the pending count, and the drive's structure keeps
 * that small: each chip agent has at most one op event pending, each
 * channel at most one grant (queued arbitration), and the trace pump
 * one admission (one per throttled tenant under SLO enforcement); only
 * reads of never-written pages add one host-overhead completion per
 * page. Backlog waits in the agents' FIFOs, not here. On the bench
 * drive (16 chips, 8 channels), peakPending() is 17 for every perfbench
 * `fig14-grid` point and 24 for `gc-churn`, whose pending set averages
 * 15.3 events at dispatch (`fig14-grid`: 8.4 to 12.8).
 */

#ifndef AERO_SIM_EVENT_QUEUE_HH
#define AERO_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/event.hh"

namespace aero
{

class EventQueue
{
  public:
    using TimerFn = void (*)(void *);

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    Tick now() const { return currentTick; }

    bool empty() const { return liveCount == 0; }
    std::size_t pending() const { return liveCount; }
    /** High-water mark of pending(): the most events ever live at once. */
    std::size_t peakPending() const { return peakLive; }
    std::uint64_t processed() const { return processedCount; }

    /**
     * Tick of the earliest pending event, kTickMax when empty. Lets the
     * trace pump batch same-tick admissions without perturbing event
     * order: if nothing is pending at now(), a pump event scheduled at
     * now() would fire immediately next anyway.
     */
    Tick nextEventTick() const
    {
        return order.empty() ? kTickMax : order.back().when;
    }

    /**
     * @name Tagged, allocation-free schedule calls (absolute ticks, never
     * in the past)
     */
    /** @{ */
    EventId scheduleTimerAt(Tick when, TimerFn fn, void *ctx);
    EventId scheduleChipOpAt(Tick when, ChipAgent &agent, const PageOp &op);
    EventId scheduleEraseSegmentAt(Tick when, ChipAgent &agent);
    EventId scheduleSuspendQuiesceAt(Tick when, ChipAgent &agent);
    EventId scheduleHostPageAt(Tick when, Ftl &ftl,
                               std::uint64_t request_id);
    EventId scheduleTraceAdmitAt(Tick when, TracePump &pump);
    EventId scheduleTraceAdmitThrottledAt(Tick when, TracePump &pump,
                                          TenantId tenant);
    EventId scheduleDieOpAt(Tick when, ChipAgent &agent);
    EventId scheduleChannelGrantAt(Tick when, Channel &channel);
    /** @} */

    /**
     * Cancel a pending event. @return true when the event was pending
     * and is now dead; false for a stale handle (already fired, already
     * cancelled, or never valid). The slot is recycled once every event
     * ahead of it has fired or been cancelled.
     */
    bool cancel(EventId id);

    /** Is the event this handle names still pending? */
    bool pendingEvent(EventId id) const;

    /** Run until the queue drains or `until` is reached. */
    void run(Tick until = kTickMax);

    /** Process exactly one event; returns false if the queue is empty. */
    bool step();

    /** Arena slots ever constructed (drain/reuse introspection). */
    std::size_t arenaSlots() const { return slots.size(); }

  private:
    static constexpr std::size_t kChunkSize = 512;

    /** One pending-array entry; `slot` indexes the arena. */
    struct Pending
    {
        Tick when;
        std::uint32_t slot;
    };

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);
    /** Pop dead entries off the back so it is always live or empty. */
    void scrubBack();
    /** Allocate, tag, and insert one event at `when`. */
    EventId post(Tick when, EventKind kind);
    void dispatch(EventKind kind, const Event::Payload &payload);

    /** Pending events, latest first: the next to fire is at the back. */
    std::vector<Pending> order;
    std::vector<Event> slots;
    /** Side arena for the fat ChipOpComplete payload (see sim/event.hh). */
    std::vector<PageOp> ops;
    /** Head of the free list through Event::nextFree (last freed first). */
    std::uint32_t freeHead = EventId::kNoSlot;
    std::size_t liveCount = 0;
    std::size_t peakLive = 0;
    Tick currentTick = 0;
    std::uint64_t processedCount = 0;
};

} // namespace aero

#endif // AERO_SIM_EVENT_QUEUE_HH
