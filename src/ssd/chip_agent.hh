/**
 * @file
 * Per-chip command scheduling.
 *
 * Each NAND chip executes one operation at a time. The agent holds
 * priority queues (user reads > user writes > GC page ops > erase) and
 * models channel contention for data transfers.
 *
 * An erase *operation* is atomic at the chip interface: once issued, its
 * loops run back to back with no dispatch points in between (the loop
 * staircase is chip-internal). The only preemption mechanism is erase
 * suspension [13]: a user read arriving mid-erase suspends the operation
 * after a voltage-quiesce entry latency, queued reads are serviced, and
 * the erase resumes with a re-ramp penalty. Practical suspension is
 * limited (kMaxSuspensionsPerOp, default 1): once exhausted, later reads
 * wait for the whole remaining operation -- which is exactly why AERO's
 * shorter erase operations shrink the read tail (Figs. 14/15).
 *
 * The agent owns its kernel events (sim/event.hh): one timer per
 * completion kind of the op in flight (page op, sense, erase segment,
 * suspend quiesce), at most one of them pending; suspension cancels the
 * segment timer. The op in flight stays in the agent (curOp), so no
 * event carries a payload, and an idle agent with empty queues starts a
 * new op directly. Under queued arbitration the agent's BusWait record
 * is its place in the channel's grant queue (ssd/channel.hh).
 */

#ifndef AERO_SSD_CHIP_AGENT_HH
#define AERO_SSD_CHIP_AGENT_HH

#include <memory>
#include <optional>

#include "common/ring_fifo.hh"
#include "erase/scheme.hh"
#include "sim/event_queue.hh"
#include "ssd/channel.hh"
#include "ssd/config.hh"
#include "ssd/gc.hh"
#include "ssd/metrics.hh"

namespace aero
{

constexpr std::uint64_t kNoRequest = ~0ULL;

/** One page read or write the FTL hands a chip agent: 32 bytes. */
struct PageOp
{
    enum class Kind : std::uint8_t { UserRead, UserWrite, GcRead, GcWrite };

    Lpn lpn = kInvalidLpn;
    Ppn ppn = kInvalidPpn;
    union
    {
        std::uint64_t requestId = kNoRequest;  //!< UserRead / UserWrite
        GcJob *job;                            //!< GcRead / GcWrite
    };
    std::uint32_t tprog = 0;  //!< program latency, writes only (0: nominal)
    TenantId tenant = 0;      //!< WFQ channel arbitration key (host ops)
    Kind kind = Kind::UserRead;
};
static_assert(sizeof(PageOp) == 32, "PageOp is copied per page op");

/** Callbacks from agents into the FTL. */
class FtlCallbacks
{
  public:
    virtual ~FtlCallbacks() = default;
    virtual void onPageOpDone(const PageOp &op) = 0;
    virtual void onEraseDone(int chip, BlockId block,
                             const EraseOutcome &outcome, GcJob *job) = 0;
    /** Is the erase for `block`'s plane urgent (plane out of space)? */
    virtual bool eraseUrgent(int chip, BlockId block) = 0;
};

class ChipAgent
{
  public:
    ChipAgent(int chip_idx, NandChip &chip, EraseScheme &scheme,
              EventQueue &eq, const SsdConfig &cfg, Channel &channel,
              FtlCallbacks &ftl, SsdMetrics &metrics);

    void enqueue(const PageOp &op);

    /**
     * Burst admission: queue the op (including any suspension side
     * effect) without a dispatch pass. The caller must flush() after the
     * burst — one dispatch per touched agent instead of one per page.
     */
    void enqueueDeferred(const PageOp &op);
    void flush() { dispatch(); }

    void enqueueErase(BlockId block, GcJob *job);

    bool idle() const;

    /** Suspensions allowed per erase operation (practical limit). */
    static constexpr int kMaxSuspensionsPerOp = 2;

  private:
    friend class Channel;  //!< grants call channelGranted()

    struct ActiveErase
    {
        std::unique_ptr<EraseSession> session;
        BlockId block = kInvalidBlock;
        GcJob *job = nullptr;
        EraseSegment seg;          //!< segment currently executing/paused
        bool paused = false;
        Tick pausedRemaining = 0;
        int suspensionsThisOp = 0;
    };

    /** Queued arbitration: where the op in flight stands. */
    enum class Phase : std::uint8_t
    {
        None,          //!< no queued-mode op in flight
        Sense,         //!< read: on-die sense running
        AwaitBus,      //!< page op waiting in the channel grant queue
        Xfer,          //!< transfer (+ on-die program) scheduled
        EraseAwaitBus, //!< erase command issue waiting for the channel
    };

    bool queued() const { return cfg.arbitration == Arbitration::Queued; }
    BusClass busClassOf(const PageOp &op) const;

    void push(const PageOp &op);
    void dispatch();
    /** Start curOp: a read or a write by its kind. */
    void startOp();
    void startRead();
    void startWrite();
    void startEraseWork();
    void resumeErase();

    /**
     * Channel grant (queued mode): start the transfer (or erase command)
     * this agent was waiting on. @return the tick the bus is released.
     */
    Tick channelGranted();

    /** @name Timer handlers */
    /** @{ */
    void onChipOpComplete();
    void finishEraseSegment();
    void onSuspendQuiesced();
    void onDieOpComplete();
    /** @} */

    int chipIdx;
    NandChip &nand;
    EraseScheme &scheme;
    EventQueue &eq;
    const SsdConfig &cfg;
    Channel &channel;
    FtlCallbacks &ftl;
    SsdMetrics &metrics;

    RingFifo<PageOp> readQ;
    RingFifo<PageOp> writeQ;
    RingFifo<PageOp> gcQ;
    RingFifo<std::pair<BlockId, GcJob *>> eraseQ;
    std::optional<ActiveErase> erase;

    bool busy = false;
    bool inEraseSegment = false;
    Tick opEnd = 0;
    PageOp curOp;  //!< the page op in flight

    /** @name Completion timers of the op in flight */
    /** @{ */
    Timer opDone;
    Timer senseDone;     //!< queued arbitration: on-die sense ended
    Timer segmentDone;
    Timer quiesced;      //!< erase suspension entry latency elapsed
    /** @} */

    /** @name Queued-arbitration in-flight state */
    /** @{ */
    Phase phase = Phase::None;
    BusWait busWait;  //!< place in the channel's grant queue
    /** @} */
};

} // namespace aero

#endif // AERO_SSD_CHIP_AGENT_HH
