/**
 * @file
 * Discrete-event simulation kernel: a monotonically advancing clock over
 * a time-ordered array of intrusive timers (see sim/event.hh). Timers
 * due at the same tick fire in scheduling order, which keeps
 * simulations deterministic.
 *
 * Ordering is a vector of (when, Timer *) entries sorted latest-first,
 * so the earliest is at the back: firing is pop_back(), and insert walks
 * in from the back, shifting the entries that fire first. A new entry
 * fires after every pending entry at its tick (it was scheduled last),
 * so the walk passes exactly the entries with `when` <= its own, and no
 * sequence number is stored. The kernel allocates once, at the first
 * insert (see kReserved). cancel() removes an entry at once; its one
 * caller is erase suspension.
 *
 * Insert is O(n) in the pending count, and the drive's structure keeps
 * that small: each chip agent has at most one op timer pending, each
 * channel at most one grant (queued arbitration), and the trace pump
 * one admission (one per throttled tenant under SLO enforcement); only
 * reads of never-written pages add one host-overhead entry per page.
 * Backlog waits in the agents' FIFOs, not here. On the bench drive (16
 * chips, 8 channels), peakPending() is 17 for every perfbench
 * `fig14-grid` point and 24 for `gc-churn`, whose pending set averages
 * 15.3 entries at dispatch (`fig14-grid`: 8.4 to 12.8).
 */

#ifndef AERO_SIM_EVENT_QUEUE_HH
#define AERO_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/event.hh"

namespace aero
{

class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    Tick now() const { return currentTick; }

    bool empty() const { return order.empty(); }
    std::size_t pending() const { return order.size(); }
    /** High-water mark of pending(): the most entries ever at once. */
    std::size_t peakPending() const { return peak; }
    std::uint64_t processed() const { return processedCount; }

    /**
     * Tick of the earliest pending entry, kTickMax when empty. Lets the
     * trace pump batch same-tick admissions without perturbing event
     * order: if nothing is pending at now(), a pump timer armed at
     * now() would fire immediately next anyway.
     */
    Tick nextEventTick() const
    {
        return order.empty() ? kTickMax : order.back().when;
    }

    /** Fire the idle timer `t` at `when` (absolute, never in the past). */
    void
    arm(Tick when, Timer &t)
    {
        AERO_CHECK(!t.pending(), "arming a pending timer");
        insert(when, t);
    }

    /**
     * Add one more entry for `t` at `when`, pending or not: the timer
     * fires once per entry. Only the FTL's host-page timer needs this.
     */
    void
    insert(Tick when, Timer &t)
    {
        AERO_CHECK(when >= currentTick, "scheduling into the past: ", when,
                   " < ", currentTick);
        // The new entry is the latest scheduled, so it fires after every
        // pending entry at `when` or earlier: walk in from the back past
        // those, shifting each one place towards the back, and insert it
        // in front of them. (when, schedule order) is a strict total
        // order, so the firing order is a deterministic function of the
        // insert/cancel call sequence.
        if (order.capacity() == 0)
            order.reserve(kReserved);
        order.push_back(Pending{});
        std::size_t i = order.size() - 1;
        for (; i > 0 && order[i - 1].when <= when; --i)
            order[i] = order[i - 1];
        order[i] = Pending{when, &t};
        t.entries += 1;
        peak = std::max(peak, order.size());
    }

    /**
     * Remove a pending timer's entry. @return false when it was not
     * pending. A timer pending more than once cannot be cancelled.
     */
    bool cancel(Timer &t);

    /** Run until the queue drains or `until` is reached. */
    void run(Tick until = kTickMax);

    /** Fire exactly one entry; returns false if the queue is empty. */
    bool
    step()
    {
        if (order.empty())
            return false;
        const Pending next = order.back();
        order.pop_back();
        currentTick = next.when;
        ++processedCount;
        next.timer->entries -= 1;
        next.timer->handler(next.timer->ctx);
        return true;
    }

  private:
    struct Pending
    {
        Tick when;
        Timer *timer;
    };

    /**
     * Entries reserved at the first insert (32 KB), well above the
     * peaks drives reach (24 on the bench drive), so the array does not
     * reallocate mid-replay. Reserving when the first replay starts
     * places the block after the drive's conditioning state and the
     * trace it replays, where the event arena it replaces sat. With no
     * reservation, or one at construction, perfbench `fig14-grid`'s
     * peak RSS rose by up to 1.5 MB: each drive's small allocations
     * split the heap hole its predecessor's trace left, so the next
     * trace no longer fit there.
     */
    static constexpr std::size_t kReserved = 2048;

    /** Pending entries, latest first: the next to fire is at the back. */
    std::vector<Pending> order;
    std::size_t peak = 0;
    Tick currentTick = 0;
    std::uint64_t processedCount = 0;
};

} // namespace aero

#endif // AERO_SIM_EVENT_QUEUE_HH
