/**
 * @file
 * Discrete-event simulation kernel: a monotonically advancing clock over
 * a time-ordered queue of *tagged* events (see sim/event.hh). Events
 * scheduled for the same tick fire in scheduling order (a stable
 * sequence number breaks ties), which keeps simulations deterministic.
 *
 * Storage is an arena of fixed-size slots recycled through a freelist —
 * the hot path never heap-allocates — and ordering is an intrusive
 * pairing heap keyed on (tick, seq): O(1) push, amortized O(log n) pop.
 * Cancellation is explicit: every schedule call returns an EventId that
 * cancel() invalidates lazily (dead slots are skipped and recycled when
 * they surface).
 */

#ifndef AERO_SIM_EVENT_QUEUE_HH
#define AERO_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
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
    std::uint64_t processed() const { return processedCount; }

    /**
     * Tick of the earliest pending event, kTickMax when empty. Lets the
     * trace pump batch same-tick admissions without perturbing event
     * order: if nothing is pending at now(), a pump event scheduled at
     * now() would fire immediately next anyway.
     */
    Tick nextEventTick() const { return root ? root->when : kTickMax; }

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
     * cancelled, or never valid). The slot is recycled when it next
     * surfaces at the heap root.
     */
    bool cancel(EventId id);

    /** Is the event this handle names still pending? */
    bool pendingEvent(EventId id) const;

    /** Run until the queue drains or `until` is reached. */
    void run(Tick until = kTickMax);

    /** Process exactly one event; returns false if the queue is empty. */
    bool step();

    /** Arena slots ever constructed (drain/reuse introspection). */
    std::size_t arenaSlots() const { return slotCount; }

  private:
    static constexpr std::size_t kChunkSize = 512;

    static Event *merge(Event *a, Event *b);
    static Event *mergePairs(Event *list);

    Event *slotAt(std::uint32_t slot) const;
    PageOp &opAt(std::uint32_t slot) const;
    Event *allocSlot();
    void freeSlot(Event *ev);
    /** Pop dead slots off the root so `root` is always live or null. */
    void scrubRoot();
    /** Allocate, key, and push one event at `when`. */
    Event *post(Tick when, EventKind kind);
    void dispatch(EventKind kind, const Event::Payload &payload);

    std::vector<std::unique_ptr<Event[]>> chunks;
    /** Side arena for the fat ChipOpComplete payload (see sim/event.hh). */
    std::vector<std::unique_ptr<PageOp[]>> opChunks;
    Event *freeHead = nullptr;
    Event *root = nullptr;
    std::size_t slotCount = 0;
    std::size_t liveCount = 0;
    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t processedCount = 0;
};

} // namespace aero

#endif // AERO_SIM_EVENT_QUEUE_HH
