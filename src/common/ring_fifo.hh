/**
 * @file
 * RingFifo: a growable FIFO over one power-of-two ring buffer. The
 * chip agents' op queues push at the back and pop at the front once per
 * simulated page op, so both ends must be O(1) with no per-element
 * allocation, and unlike std::deque a push never touches a node map.
 * The FTL's stalled writes and host-page completions, and the trace
 * pump's records parked by an SLO throttle, queue in rings too.
 *
 * A ring allocates its first kInitialCapacity slots when it is built,
 * as std::deque allocates its first node, so a drive's queues take
 * their memory with the drive rather than in small pieces mid-replay.
 * It doubles when full and never shrinks, so it holds its peak
 * occupancy rounded up to a power of two.
 */

#ifndef AERO_COMMON_RING_FIFO_HH
#define AERO_COMMON_RING_FIFO_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace aero
{

template <typename T>
class RingFifo
{
  public:
    RingFifo() : buf(kInitialCapacity) {}

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    /** Slots allocated: a power of two. */
    std::size_t capacity() const { return buf.size(); }

    /** The i-th element in FIFO order (0 is the front). */
    T &operator[](std::size_t i) { return buf[wrap(head + i)]; }
    T &front() { return buf[head]; }

    void push_back(const T &value)
    {
        if (count == buf.size())
            grow();
        buf[wrap(head + count)] = value;
        ++count;
    }

    void pop_front()
    {
        head = wrap(head + 1);
        --count;
    }

  private:
    static constexpr std::size_t kInitialCapacity = 8;

    std::size_t wrap(std::size_t i) const { return i & (buf.size() - 1); }

    /**
     * Double the ring, unwrapping the contents to start at slot 0 (a
     * moved-from ring starts over at kInitialCapacity).
     */
    void grow()
    {
        std::vector<T> next(std::max(kInitialCapacity, 2 * buf.size()));
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move((*this)[i]);
        buf = std::move(next);
        head = 0;
    }

    std::vector<T> buf;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace aero

#endif // AERO_COMMON_RING_FIFO_HH
