/**
 * @file
 * The simulation kernel's one event type: an intrusive Timer. Every
 * event source owns its timers — a chip agent one per completion kind
 * of its op in flight, a channel one for its grant, the trace pump one
 * for its next admission and one per throttled tenant gate, the FTL one
 * for host-overhead completions — so the kernel keeps no event storage
 * of its own: its pending array holds (tick, Timer *) entries, and
 * firing an entry calls the timer's handler with the owner it names.
 *
 * A timer is pending at most once, except the FTL's host-page timer,
 * which sits in the array once per queued completion (EventQueue::insert):
 * they are all scheduled at now() + hostOverhead, so they fire in the
 * order they were scheduled, and the FTL keeps their request ids in a
 * FIFO beside the timer.
 *
 * Timers neither copy nor move: the pending array points at them, and a
 * copy would carry a handler bound to the original's owner. An owner
 * names its timers' handler and itself in init(), once it sits where it
 * will stay, and must outlive any entry it leaves pending.
 */

#ifndef AERO_SIM_EVENT_HH
#define AERO_SIM_EVENT_HH

#include <cstdint>

namespace aero
{

class Timer
{
  public:
    using Handler = void (*)(void *owner);

    Timer() = default;
    Timer(const Timer &) = delete;
    Timer &operator=(const Timer &) = delete;

    /** Fire `fn(owner)` on every expiry. */
    void
    init(Handler fn, void *owner)
    {
        handler = fn;
        ctx = owner;
    }

    /** Fire `(owner->*Method)()` on every expiry. */
    template <typename T, void (T::*Method)()>
    void
    init(T *owner)
    {
        init([](void *p) { (static_cast<T *>(p)->*Method)(); }, owner);
    }

    bool pending() const { return entries != 0; }

  private:
    friend class EventQueue;

    Handler handler = nullptr;
    void *ctx = nullptr;
    std::uint32_t entries = 0;  //!< times it sits in the pending array
};

} // namespace aero

#endif // AERO_SIM_EVENT_HH
