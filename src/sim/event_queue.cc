#include "sim/event_queue.hh"

namespace aero
{

bool
EventQueue::cancel(Timer &t)
{
    if (!t.pending())
        return false;
    AERO_CHECK(t.entries == 1, "cancelling a timer pending ", t.entries,
               " times");
    for (std::size_t i = order.size(); i-- > 0;) {
        if (order[i].timer == &t) {
            order.erase(order.begin() + static_cast<std::ptrdiff_t>(i));
            t.entries = 0;
            return true;
        }
    }
    AERO_PANIC("pending timer missing from the pending array");
}

void
EventQueue::run(Tick until)
{
    while (!order.empty() && order.back().when <= until)
        step();
    if (currentTick < until && until != kTickMax)
        currentTick = until;
}

} // namespace aero
