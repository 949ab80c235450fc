/**
 * @file
 * The simulation kernel's event vocabulary: a small closed set of POD
 * event kinds, dispatched by switch in EventQueue::step() instead of
 * through type-erased callbacks. Every event the simulator schedules —
 * page-op completions, erase-segment completions, suspension quiesce,
 * host-overhead completions, trace admission — is one tagged arena slot
 * with no per-event heap allocation; a `Timer` (free function plus
 * context pointer) covers anything else, such as tests and benches.
 *
 * PageOp lives here rather than in ssd/chip_agent.hh because completion
 * events carry one by value; the SSD layer re-exports it via its usual
 * headers.
 */

#ifndef AERO_SIM_EVENT_HH
#define AERO_SIM_EVENT_HH

#include <cstdint>

#include "common/types.hh"

namespace aero
{

class Channel;
class ChipAgent;
class Ftl;
struct GcJob;
struct TracePump;

constexpr std::uint64_t kNoRequest = ~0ULL;

struct PageOp
{
    enum class Kind : std::uint8_t { UserRead, UserWrite, GcRead, GcWrite };

    Kind kind = Kind::UserRead;
    Lpn lpn = kInvalidLpn;
    Ppn ppn = kInvalidPpn;
    std::uint64_t requestId = kNoRequest;
    GcJob *job = nullptr;
    Tick tprog = 0;   //!< program latency (scheme-dependent, writes only)
    TenantId tenant = 0;  //!< WFQ channel arbitration key (host ops)
};

/** The closed set of event kinds the kernel can dispatch. */
enum class EventKind : std::uint8_t
{
    Dead = 0,          //!< free or cancelled arena slot; never dispatched
    Timer,             //!< free function + context pointer
    ChipOpComplete,    //!< a page read/write finished on a chip
    EraseSegmentDone,  //!< an erase segment (or resumed remainder) ended
    SuspendQuiesced,   //!< erase-suspension entry latency elapsed
    HostPageDone,      //!< host-overhead-only page completion
    TraceAdmit,        //!< trace pump: admit the next due request burst
    DieOpComplete,     //!< queued arbitration: on-die phase (sense) ended
    ChannelGrant,      //!< queued arbitration: channel bus released
    TraceAdmitThrottled, //!< trace pump: a tenant's token bucket refilled
};

/**
 * Handle to a scheduled event: arena slot plus generation. The
 * generation is bumped whenever a slot is cancelled or fires, so a stale
 * handle can never cancel the slot's next occupant — cancelling an event
 * that already fired is a harmless no-op returning false, so no agent
 * needs a version counter to ignore its stale events.
 */
struct EventId
{
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    std::uint32_t slot = kNoSlot;
    std::uint32_t gen = 0;

    explicit operator bool() const { return slot != kNoSlot; }
};

/**
 * One arena slot: tag, generation and a two-word payload union. Slots
 * live in EventQueue's arena and are recycled through its free list;
 * the firing order is kept apart from them, in EventQueue's sorted
 * pending array of (when, slot) entries. The one fat payload (the PageOp
 * a ChipOpComplete carries) lives in a parallel per-slot arena in
 * EventQueue, written at schedule time and read back once at dispatch,
 * so every other kind copies only the two-word union.
 */
struct Event
{
    struct TimerPayload
    {
        void (*fn)(void *);
        void *ctx;
    };

    struct AgentPayload
    {
        ChipAgent *agent;
    };

    struct HostPagePayload
    {
        Ftl *ftl;
        std::uint64_t requestId;
    };

    struct PumpPayload
    {
        TracePump *pump;
    };

    struct PumpTenantPayload
    {
        TracePump *pump;
        std::uint64_t tenant;  //!< TenantId widened to keep the union POD
    };

    struct ChannelPayload
    {
        Channel *channel;
    };

    union Payload
    {
        Payload() : timer{nullptr, nullptr} {}

        TimerPayload timer;         //!< Timer
        AgentPayload agent;         //!< ChipOpComplete / EraseSegmentDone
                                    //!< / SuspendQuiesced / DieOpComplete
        HostPagePayload hostPage;   //!< HostPageDone
        PumpPayload pump;           //!< TraceAdmit
        PumpTenantPayload pumpTenant; //!< TraceAdmitThrottled
        ChannelPayload channel;     //!< ChannelGrant
    };

    std::uint32_t gen = 0;       //!< validates EventIds against reuse
    std::uint32_t nextFree = 0;  //!< free-list link while the slot is free
    EventKind kind = EventKind::Dead;
    Payload payload;
};

} // namespace aero

#endif // AERO_SIM_EVENT_HH
