/**
 * @file
 * Shared channel bus between the chips of one channel.
 *
 * Legacy arbitration keeps the original single-field model: a transfer
 * reserves the bus by advancing `busyUntil`, so contention is folded into
 * closed-form latency arithmetic at issue time (and pre-PR-8 behaviour is
 * reproduced bit for bit).
 *
 * Queued arbitration models the bus as a resource with per-class grant
 * queues: a chip *requests* the bus for a transfer (or an erase command
 * issue), waits its turn, and is granted when the grant timer of the
 * previous owner's transfer fires. Grants drain strictly by class
 * priority — host reads > host writes > GC copies > erase commands — and
 * FIFO within a class, so host and reclamation traffic genuinely contend
 * and the wait each class suffers is measured into SsdMetrics. An agent
 * waits for at most one grant, so each class queue is an intrusive list
 * through the waiting agents' BusWait records, which also hold the wait
 * start, arrival sequence number and WFQ tag: the channel stores none.
 *
 * With WFQ enabled (SloPolicy::Wfq / ThrottleWfq), the two *host*
 * classes swap their FIFO for start-time fair queuing: each request is
 * tagged at enqueue with its tenant's virtual start time (the later of
 * the channel's virtual clock and the tenant's last finish tag; finish
 * advances by quantum/weight), and the grant picks the waiter with the
 * lowest tag, ties broken by arrival. Class priority is untouched — a
 * queued host read still beats any host write — so WFQ divides the
 * *host* share of the bus by weight while GC copies and erase commands
 * stay strict FIFO below. A single-tenant run produces tags that are
 * monotone in arrival order, making WFQ grant-for-grant identical to
 * the FIFO it replaces.
 */

#ifndef AERO_SSD_CHANNEL_HH
#define AERO_SSD_CHANNEL_HH

#include <array>
#include <vector>

#include "sim/event_queue.hh"
#include "ssd/metrics.hh"

namespace aero
{

class ChipAgent;

/** Grant-priority classes of queued arbitration, highest first. */
enum class BusClass : std::uint8_t
{
    HostRead = 0,
    HostWrite = 1,
    GcCopy = 2,
    EraseCmd = 3,
};

constexpr int kBusClasses = 4;

/** WFQ virtual-time quantum: finish tags advance by kWfqQuantum/weight
 *  per grant, so a weight-w tenant accrues virtual time 1/w as fast. */
constexpr std::uint64_t kWfqQuantum = 1ULL << 20;

/** One chip agent's place in its channel's grant queue. */
struct BusWait
{
    ChipAgent *agent = nullptr;
    BusWait *next = nullptr;  //!< next waiter of the same class
    Tick since = 0;           //!< request tick
    std::uint64_t seq = 0;    //!< arrival order; breaks tag ties
    std::uint64_t tag = 0;    //!< WFQ virtual start time
    TenantId tenant = 0;
    BusClass cls = BusClass::HostRead;
    bool queued = false;
};

/** The four class queues of a channel, intrusive through BusWait. */
class BusQueue
{
  public:
    void push(BusWait &w);

    /**
     * Unlink the next waiter to grant, nullptr when none waits: the
     * first of the highest non-empty class, except that with `wfq` the
     * host classes give the lowest (tag, seq).
     */
    BusWait *pop(bool wfq);

  private:
    struct List
    {
        BusWait *head = nullptr;
        BusWait *tail = nullptr;
    };

    std::array<List, kBusClasses> lists;
};

class Channel
{
  public:
    /** Legacy arbitration: end of the last reserved transfer slot. */
    Tick busyUntil = 0;

    /** Wire the queued-arbitration machinery (FTL does this at mount). */
    void init(int index, EventQueue *eq_, SsdMetrics *metrics_);

    int index() const { return idx; }

    /**
     * Queued arbitration: request the bus. Grants immediately when the
     * bus is free, otherwise enqueues; the agent's channelGranted() runs
     * at grant time and returns the tick it releases the bus. `tenant`
     * only matters under WFQ and only for the host classes.
     */
    void request(ChipAgent &agent, BusClass cls, TenantId tenant = 0);

    /**
     * Turn on weighted-fair queuing for the host classes. `weights` is
     * indexed by tenant; tenants beyond its end weigh 1. Must be set
     * before the first request().
     */
    void enableWfq(std::vector<std::uint32_t> weights);

  private:
    /** Grant-timer handler: the bus was released. */
    void onGrantDone();
    void grantTo(BusWait &w);

    std::uint64_t weightOf(TenantId tenant) const;

    BusQueue waiters;
    Timer grantDone;
    bool owned = false;
    int idx = 0;
    EventQueue *eq = nullptr;
    SsdMetrics *metrics = nullptr;

    /** @name WFQ state (SFQ: Goyal et al.) */
    /** @{ */
    bool wfq = false;
    std::vector<std::uint32_t> weights;    //!< per tenant; default 1
    std::vector<std::uint64_t> finishTag;  //!< per tenant, lazily grown
    std::uint64_t vtime = 0;               //!< virtual clock (host classes)
    std::uint64_t nextWaiterSeq = 0;
    /** @} */
};

} // namespace aero

#endif // AERO_SSD_CHANNEL_HH
