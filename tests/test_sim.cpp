/**
 * @file
 * Unit tests for the event queue, page mapping, and block manager —
 * including the timer kernel's surface (arming, cancellation, same-tick
 * ordering across owners, a timer pending once per host-page
 * completion) and a randomized 1-vs-4-thread determinism check over
 * full-drive replays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <unordered_map>
#include <vector>

#include "exp/report.hh"
#include "exp/sweep.hh"
#include "sim/event_queue.hh"
#include "ssd/block_manager.hh"
#include "ssd/mapping.hh"
#include "ssd/ssd.hh"

namespace aero
{

/** Reaches the FTL's host-page timer (a friend of Ftl). */
struct FtlProbe
{
    static Timer &hostPageTimer(Ftl &ftl) { return ftl.hostPageDone; }
};

namespace
{

/** A timer owner that appends its tag to a shared order vector. */
struct OrderProbe
{
    OrderProbe(std::vector<int> *order_, int tag_) : order(order_), tag(tag_)
    {
        timer.init<OrderProbe, &OrderProbe::fire>(this);
    }

    void fire() { order->push_back(tag); }

    std::vector<int> *order;
    int tag;
    Timer timer;
};

/** A timer owner that counts its firings. */
struct Counter
{
    Counter() { timer.init<Counter, &Counter::fire>(this); }

    void fire() { fired += 1; }

    int fired = 0;
    Timer timer;
};

/** A timer owner that re-arms itself 10 ticks on until it fired 5x. */
struct Chain
{
    explicit Chain(EventQueue &eq_) : eq(eq_)
    {
        timer.init<Chain, &Chain::fire>(this);
    }

    void
    fire()
    {
        if (++fired < 5)
            eq.arm(eq.now() + 10, timer);
    }

    EventQueue &eq;
    int fired = 0;
    Timer timer;
};

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    OrderProbe p1{&order, 1}, p2{&order, 2}, p3{&order, 3};
    eq.arm(30, p3.timer);
    eq.arm(10, p1.timer);
    eq.arm(20, p2.timer);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.processed(), 3u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    std::deque<OrderProbe> probes;
    for (int i = 0; i < 5; ++i)
        probes.emplace_back(&order, i);
    for (auto &probe : probes)
        eq.arm(7, probe.timer);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    Chain chain(eq);
    eq.arm(0, chain.timer);
    eq.run();
    EXPECT_EQ(chain.fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunUntilStopsEarly)
{
    EventQueue eq;
    Counter early, late;
    eq.arm(10, early.timer);
    eq.arm(100, late.timer);
    eq.run(50);
    EXPECT_EQ(early.fired + late.fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(early.fired + late.fired, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    Counter first, second;
    eq.arm(10, first.timer);
    eq.run();
    EXPECT_DEATH(eq.arm(5, second.timer), "past");
}

TEST(EventQueueDeathTest, ArmingAPendingTimerDies)
{
    EventQueue eq;
    Counter c;
    eq.arm(10, c.timer);
    EXPECT_DEATH(eq.arm(20, c.timer), "arming a pending timer");
    // insert() is the one way to queue a timer twice.
    eq.insert(20, c.timer);
    EXPECT_DEATH(eq.cancel(c.timer), "pending 2 times");
    eq.run();
    EXPECT_EQ(c.fired, 2);
}

TEST(EventQueue, TaggedTimerFiresAndInvalidatesHandle)
{
    // A timer is its own handle: pending from arm() until it fires,
    // and then neither pending nor cancellable, but free to re-arm.
    EventQueue eq;
    std::vector<int> order;
    OrderProbe probe{&order, 1};
    EXPECT_FALSE(probe.timer.pending());
    eq.arm(10, probe.timer);
    EXPECT_TRUE(probe.timer.pending());
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(eq.processed(), 1u);
    EXPECT_FALSE(probe.timer.pending());
    EXPECT_FALSE(eq.cancel(probe.timer));
    eq.arm(20, probe.timer);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 1}));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue eq;
    std::vector<int> order;
    OrderProbe keep{&order, 1};
    OrderProbe drop{&order, 2};
    eq.arm(10, keep.timer);
    eq.arm(10, drop.timer);
    EXPECT_TRUE(eq.cancel(drop.timer));
    EXPECT_FALSE(drop.timer.pending());
    EXPECT_FALSE(eq.cancel(drop.timer));  // second cancel: not pending
    EXPECT_TRUE(keep.timer.pending());
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(EventQueue, CancelledSlotIsSkippedAmongSameTickPeers)
{
    EventQueue eq;
    std::vector<int> order;
    OrderProbe a{&order, 1};
    OrderProbe b{&order, 2};
    OrderProbe c{&order, 3};
    eq.arm(10, a.timer);
    eq.arm(10, b.timer);
    eq.arm(10, c.timer);
    EXPECT_TRUE(eq.cancel(b.timer));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickMixedKindsFireInScheduleOrder)
{
    // FIFO-at-a-tick must hold across owners, not just within one:
    // timers interleaved at one tick with two tenant-gate release
    // timers see exactly the releases armed before them.
    struct GateProbe
    {
        GateProbe(std::vector<int> *order_, const TracePump *pump_)
            : order(order_), pump(pump_)
        {
            timer.init<GateProbe, &GateProbe::fire>(this);
        }

        /** Record a bitmask of the gates released so far. */
        void
        fire()
        {
            int released = 0;
            for (std::size_t t = 0; t < pump->gates.size(); ++t) {
                if (!pump->gates[t].release.pending())
                    released |= 1 << t;
            }
            order->push_back(released);
        }

        std::vector<int> *order;
        const TracePump *pump;
        Timer timer;
    };
    EventQueue eq;
    TracePump pump;
    pump.eq = &eq;
    SsdMetrics metrics;
    pump.configureThrottle(parseTenantSloSpec("0:iops=1000,1:iops=1000"),
                           16, metrics);
    ASSERT_EQ(pump.gates.size(), 2u);
    std::vector<int> order;
    std::deque<GateProbe> probes;
    for (int i = 0; i < 3; ++i)
        probes.emplace_back(&order, &pump);
    eq.arm(5, probes[0].timer);
    eq.arm(5, pump.gates[0].release);
    eq.arm(5, probes[1].timer);
    eq.arm(5, pump.gates[1].release);
    eq.arm(5, probes[2].timer);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
    EXPECT_EQ(eq.processed(), 5u);
}

TEST(EventQueue, NextEventTickTracksHeapRoot)
{
    EventQueue eq;
    Counter a, b;
    EXPECT_EQ(eq.nextEventTick(), kTickMax);
    eq.arm(42, a.timer);
    eq.arm(17, b.timer);
    EXPECT_EQ(eq.nextEventTick(), 17u);
    eq.run();
    EXPECT_EQ(eq.nextEventTick(), kTickMax);
}

TEST(EventQueue, TimersRearmAcrossDrains)
{
    // The kernel holds no event storage of its own: the same 100
    // timers fire in wave after wave, and the pending count never
    // exceeds one wave.
    EventQueue eq;
    std::deque<Counter> counters(100);
    for (int w = 0; w < 5; ++w) {
        const Tick base = eq.now() + 1;
        for (std::size_t i = 0; i < counters.size(); ++i)
            eq.arm(base + static_cast<Tick>(i), counters[i].timer);
        eq.run();
    }
    EXPECT_EQ(eq.processed(), 500u);
    EXPECT_EQ(eq.peakPending(), 100u);
    for (const Counter &c : counters)
        EXPECT_EQ(c.fired, 5);
}

TEST(EventQueue, CancelledTimersCanBeRearmed)
{
    EventQueue eq;
    std::deque<Counter> counters(64);
    for (Counter &c : counters)
        eq.arm(10, c.timer);
    for (Counter &c : counters)
        EXPECT_TRUE(eq.cancel(c.timer));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), kTickMax);
    for (Counter &c : counters)
        eq.arm(eq.now() + 1, c.timer);
    for (int i = 0; i < 64; ++i)
        EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    for (const Counter &c : counters)
        EXPECT_EQ(c.fired, 1);
}

TEST(EventQueueDeathTest, HostPageFireWithEmptyFifoDies)
{
    // The FTL's host-page timer fires once per queued request id; an
    // entry without one means the two went out of step.
    EventQueue eq;
    Ftl ftl(SsdConfig::tiny(), eq);
    eq.insert(eq.now() + 5, FtlProbe::hostPageTimer(ftl));
    EXPECT_DEATH(eq.run(), "no page queued");
}

/**
 * The kernel's contract, spelled out the slow way: pending entries in a
 * map keyed by (when, schedule order), each naming the timer it fires
 * and the tag that firing records.
 */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, int timer, int tag)
    {
        queue.emplace(Key{when, seq++}, Entry{timer, tag});
    }

    /** Remove `timer`'s one entry; false when it has none. */
    bool
    cancel(int timer)
    {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->second.timer == timer) {
                queue.erase(it);
                return true;
            }
        }
        return false;
    }

    /** Fire the earliest entry; its tag, or nothing when empty. */
    std::optional<int>
    step()
    {
        if (queue.empty())
            return std::nullopt;
        const auto [key, e] = *queue.begin();
        queue.erase(queue.begin());
        now = key.first;
        return e.tag;
    }

    /** Timer of the `i`-th entry in firing order. */
    int
    timerAt(std::size_t i) const
    {
        auto it = queue.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(i));
        return it->second.timer;
    }

    Tick nextEventTick() const
    {
        return queue.empty() ? kTickMax : queue.begin()->first.first;
    }
    std::size_t pending() const { return queue.size(); }

    Tick now = 0;

  private:
    using Key = std::pair<Tick, std::uint64_t>;

    struct Entry
    {
        int timer;
        int tag;
    };

    std::map<Key, Entry> queue;
    std::uint64_t seq = 0;
};

/**
 * A timer pending once per queued tag, as the FTL's host-page timer is
 * once per request id: every insert is due `kDelay` after now().
 */
struct SharedTimer
{
    static constexpr Tick kDelay = 3;

    explicit SharedTimer(std::vector<int> *order_) : order(order_)
    {
        timer.init<SharedTimer, &SharedTimer::fire>(this);
    }

    void
    fire()
    {
        order->push_back(tags.front());
        tags.pop_front();
    }

    std::vector<int> *order;
    std::deque<int> tags;
    Timer timer;
};

TEST(EventQueue, RandomizedDifferentialAgainstReference)
{
    // Seeded arm/insert/cancel/step sequences, checked against
    // ReferenceQueue after every call: the same firing sequence and the
    // same nextEventTick(), pending(), peakPending() and now(). Probe
    // timers are armed once at a time; the shared timer takes same-tick
    // bursts of 64 entries, like an unmapped 64-page read. Seeds cycle
    // through three pending caps: the simulator's regime (a few dozen)
    // and two larger ones.
    constexpr std::array<std::size_t, 3> kCaps = {24, 96, 700};
    constexpr int kShared = -1;  // the shared timer's id in the reference
    for (std::uint32_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(seed);
        const std::size_t cap = kCaps[seed % kCaps.size()];
        EventQueue eq;
        ReferenceQueue ref;
        std::vector<int> fired;
        std::deque<OrderProbe> probes;  // tag == index
        for (std::size_t i = 0; i < cap; ++i)
            probes.emplace_back(&fired, static_cast<int>(i));
        SharedTimer shared(&fired);
        int next_shared_tag = -2;  // negative: apart from the probes
        std::size_t peak = 0;
        const auto idle_probe = [&]() -> OrderProbe * {
            const std::size_t start = rng() % probes.size();
            for (std::size_t k = 0; k < probes.size(); ++k) {
                OrderProbe &p = probes[(start + k) % probes.size()];
                if (!p.timer.pending())
                    return &p;
            }
            return nullptr;
        };
        const auto insert_shared = [&]() {
            const Tick when = eq.now() + SharedTimer::kDelay;
            shared.tags.push_back(next_shared_tag);
            eq.insert(when, shared.timer);
            ref.schedule(when, kShared, next_shared_tag);
            --next_shared_tag;
        };
        const auto cancel = [&](int timer) {
            if (timer == kShared)
                return;  // pending several times: not cancellable
            const bool want = ref.cancel(timer);
            ASSERT_EQ(eq.cancel(probes[static_cast<std::size_t>(timer)]
                                    .timer),
                      want);
        };
        for (int op = 0; op < 4000; ++op) {
            const unsigned dice = rng() % 100;
            if (dice < 3 && ref.pending() + 64 <= cap) {
                for (int i = 0; i < 64; ++i)
                    insert_shared();
            } else if (dice < 8 && ref.pending() < cap) {
                insert_shared();
            } else if (dice < 45 && ref.pending() < cap) {
                if (OrderProbe *p = idle_probe()) {
                    // Offsets in [0, 8) often land on a tick that
                    // already holds entries.
                    const Tick when = eq.now() + rng() % (dice < 25 ? 8 : 64);
                    eq.arm(when, p->timer);
                    ref.schedule(when, p->tag, p->tag);
                }
            } else if (dice < 52 && ref.pending() > 0) {
                cancel(ref.timerAt(0));  // the earliest entry
            } else if (dice < 58 && ref.pending() > 0) {
                cancel(ref.timerAt(rng() % ref.pending()));  // a middle one
            } else if (dice < 62) {
                // Mostly idle: fired or cancelled already.
                cancel(static_cast<int>(rng() % probes.size()));
            } else {
                const std::optional<int> want = ref.step();
                const std::size_t before = fired.size();
                ASSERT_EQ(eq.step(), want.has_value());
                if (want) {
                    ASSERT_EQ(fired.size(), before + 1);
                    ASSERT_EQ(fired.back(), *want) << "op " << op;
                }
            }
            ASSERT_EQ(eq.nextEventTick(), ref.nextEventTick()) << "op " << op;
            ASSERT_EQ(eq.pending(), ref.pending()) << "op " << op;
            peak = std::max(peak, ref.pending());
            ASSERT_EQ(eq.peakPending(), peak);
            ASSERT_EQ(eq.now(), ref.now);
        }
        while (const std::optional<int> want = ref.step()) {
            ASSERT_TRUE(eq.step());
            ASSERT_EQ(fired.back(), *want);
        }
        EXPECT_FALSE(eq.step());
        EXPECT_EQ(eq.processed(), fired.size());
        EXPECT_TRUE(shared.tags.empty());
    }
}

TEST(EventQueue, ThreadCountCannotPerturbReplays)
{
    // The determinism claim behind `ctest -L golden`: a full-drive
    // replay is a pure function of its SimPoint, so a randomized set of
    // points must produce bit-identical results from a 1-thread and a
    // 4-thread pool (each point owns its Ssd and EventQueue; threads
    // shard points, never a drive's chips).
    std::mt19937 rng(20240808u);
    const std::vector<std::string> workloads = {"prxy", "proj", "hm"};
    std::vector<SimPoint> points;
    for (int i = 0; i < 6; ++i) {
        SimPoint pt;
        pt.workload = workloads[rng() % workloads.size()];
        pt.scheme = (rng() % 2 == 0) ? SchemeKind::Baseline
                                     : SchemeKind::Aero;
        pt.pec = (rng() % 2 == 0) ? 500.0 : 2500.0;
        pt.requests = 1500 + rng() % 500;
        pt.seed = rng();
        points.push_back(pt);
    }
    const SsdConfig base = SsdConfig::tiny();
    const auto replay = [&](const SimPoint &pt) {
        return runSimPoint(pt, base);
    };
    const auto one = parallelMap(points, replay, 1);
    const auto four = parallelMap(points, replay, 4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(toJson(one[i]).dump(), toJson(four[i]).dump())
            << "replay " << i << " diverged across thread counts";
}

TEST(Mapping, UpdateAndLookupRoundTrip)
{
    PageMapping m(64, 2, 4, 8);
    EXPECT_EQ(m.lookup(0), kInvalidPpn);
    const Ppn ppn = m.encode(1, 2, 3);
    EXPECT_EQ(m.update(7, ppn), kInvalidPpn);
    EXPECT_EQ(m.lookup(7), ppn);
    EXPECT_EQ(m.reverseLookup(ppn), 7u);
    EXPECT_EQ(m.mappedCount(), 1u);
    const auto parts = m.decode(ppn);
    EXPECT_EQ(parts.chip, 1);
    EXPECT_EQ(parts.block, 2u);
    EXPECT_EQ(parts.page, 3);
}

TEST(Mapping, OverwriteInvalidatesOldLocation)
{
    PageMapping m(64, 2, 4, 8);
    const Ppn a = m.encode(0, 1, 0);
    const Ppn b = m.encode(1, 3, 5);
    m.update(9, a);
    EXPECT_EQ(m.validPages(0, 1), 1);
    EXPECT_EQ(m.update(9, b), a);
    EXPECT_EQ(m.reverseLookup(a), kInvalidLpn);
    EXPECT_EQ(m.validPages(0, 1), 0);
    EXPECT_EQ(m.validPages(1, 3), 1);
    EXPECT_EQ(m.mappedCount(), 1u);
}

TEST(Mapping, DoubleProgramSamePpnPanics)
{
    PageMapping m(64, 2, 4, 8);
    const Ppn ppn = m.encode(0, 0, 0);
    m.update(1, ppn);
    EXPECT_DEATH(m.update(2, ppn), "still mapped");
}

TEST(Mapping, EraseRequiresNoValidPages)
{
    PageMapping m(64, 2, 4, 8);
    m.update(3, m.encode(0, 2, 1));
    EXPECT_DEATH(m.onBlockErased(0, 2), "valid pages");
    m.invalidateLpn(3);
    m.onBlockErased(0, 2);  // now fine
    EXPECT_EQ(m.validPages(0, 2), 0);
}

TEST(Mapping, RelocateMatchesPerPageUpdates)
{
    // Two mappings, one moved page by page through update() and one
    // through livePages() + relocate(), end in the same state.
    PageMapping bulk(64, 2, 4, 8), ref(64, 2, 4, 8);
    for (Lpn lpn = 0; lpn < 8; ++lpn) {
        bulk.update(lpn, bulk.encode(0, 1, static_cast<int>(lpn)));
        ref.update(lpn, ref.encode(0, 1, static_cast<int>(lpn)));
    }
    for (const Lpn lpn : {1u, 4u, 6u}) {  // overwrite: pages go stale
        bulk.update(lpn, bulk.encode(1, 0, static_cast<int>(lpn)));
        ref.update(lpn, ref.encode(1, 0, static_cast<int>(lpn)));
    }
    std::vector<LivePage> live(8);
    const int n = bulk.livePages(0, 1, live);
    ASSERT_EQ(n, 5);
    EXPECT_EQ(live[0].lpn, 0u);
    EXPECT_EQ(live[4].lpn, 7u);
    bulk.relocate(std::span(live).first(3), bulk.encode(0, 2, 5));
    bulk.relocate(std::span(live).subspan(3, 2), bulk.encode(0, 3, 0));
    int dpage = 5;
    BlockId dst = 2;
    for (int p = 0; p < 8; ++p) {
        const Ppn ppn = ref.encode(0, 1, p);
        const Lpn lpn = ref.reverseLookup(ppn);
        if (lpn == kInvalidLpn)
            continue;
        if (dpage == 8) {
            dst = 3;
            dpage = 0;
        }
        ref.update(lpn, ref.encode(0, dst, dpage++));
    }
    for (Lpn lpn = 0; lpn < 64; ++lpn)
        EXPECT_EQ(bulk.lookup(lpn), ref.lookup(lpn)) << "LPN " << lpn;
    for (BlockId b = 0; b < 4; ++b) {
        EXPECT_EQ(bulk.validPages(0, b), ref.validPages(0, b));
        EXPECT_EQ(bulk.validPages(1, b), ref.validPages(1, b));
    }
    EXPECT_EQ(bulk.validPages(0, 1), 0);
    EXPECT_EQ(bulk.mappedCount(), ref.mappedCount());
}

TEST(Mapping, RelocateKeepsUpdatesChecks)
{
    PageMapping m(64, 2, 4, 8);
    m.update(3, m.encode(0, 1, 0));
    m.update(4, m.encode(0, 1, 1));
    m.update(5, m.encode(0, 2, 0));
    std::vector<LivePage> live(8);
    ASSERT_EQ(m.livePages(0, 1, live), 2);
    // The destination is still mapped.
    EXPECT_DEATH(m.relocate(std::span(live).first(2), m.encode(0, 2, 0)),
                 "still mapped");
    // A run may not cross into the next block.
    EXPECT_DEATH(m.relocate(std::span(live).first(2), m.encode(0, 3, 7)),
                 "crosses a block");
    // The source was overwritten after the pages were collected.
    m.update(4, m.encode(1, 0, 0));
    EXPECT_DEATH(m.relocate(std::span(live).first(2), m.encode(0, 3, 0)),
                 "no longer maps");
    // A buffer smaller than a block is refused.
    std::vector<LivePage> small(7);
    EXPECT_DEATH(m.livePages(0, 1, small), "smaller than a block");
}

TEST(Mapping, MapFreshRunStridesLpnsOverOneBlock)
{
    PageMapping m(64, 2, 4, 8);
    m.mapFreshRun(3, 4, 5, m.encode(1, 2, 2));
    for (int k = 0; k < 5; ++k) {
        EXPECT_EQ(m.lookup(3 + 4 * static_cast<Lpn>(k)),
                  m.encode(1, 2, 2 + k));
    }
    EXPECT_EQ(m.validPages(1, 2), 5);
    EXPECT_EQ(m.mappedCount(), 5u);
    EXPECT_DEATH(m.mapFreshRun(7, 1, 1, m.encode(0, 0, 0)),
                 "prefill remapping LPN 7");
    EXPECT_DEATH(m.mapFreshRun(40, 1, 1, m.encode(1, 2, 3)),
                 "still mapped");
    EXPECT_DEATH(m.mapFreshRun(40, 1, 2, m.encode(0, 0, 7)),
                 "crosses a block");
}

TEST(Mapping, EncodeDecodeExhaustive)
{
    PageMapping m(64, 3, 5, 7);
    for (int c = 0; c < 3; ++c) {
        for (BlockId b = 0; b < 5; ++b) {
            for (int pg = 0; pg < 7; ++pg) {
                const auto parts = m.decode(m.encode(c, b, pg));
                EXPECT_EQ(parts.chip, c);
                EXPECT_EQ(parts.block, b);
                EXPECT_EQ(parts.page, pg);
            }
        }
    }
}

TEST(Mapping, RandomizedDifferentialAgainstReference)
{
    // No dimension is a power of two, so every 32-bit division in
    // decode and every ppn / pagesPerBlock block index is exercised.
    constexpr int kChips = 3;
    constexpr int kBlocks = 5;
    constexpr int kPages = 7;
    constexpr int kBlocksTotal = kChips * kBlocks;
    constexpr Lpn kLogical = 60;  // of 105 physical pages
    PageMapping m(kLogical, kChips, kBlocks, kPages);

    // Reference model: hash maps plus per-block valid counts and write
    // pointers (erase-before-write: a page is programmed once per erase).
    std::unordered_map<Lpn, Ppn> l2p;
    std::unordered_map<Ppn, Lpn> p2l;
    std::vector<int> valid(kBlocksTotal, 0);
    std::vector<int> written(kBlocksTotal, 0);
    const auto blockOf = [](Ppn ppn) {
        return static_cast<int>(ppn / kPages);
    };
    const auto dropOld = [&](Lpn lpn) {
        const auto it = l2p.find(lpn);
        if (it == l2p.end())
            return kInvalidPpn;
        const Ppn old = it->second;
        p2l.erase(old);
        valid[blockOf(old)] -= 1;
        l2p.erase(it);
        return old;
    };
    const auto eraseBlock = [&](int blk) {
        const int chip = blk / kBlocks;
        const auto block = static_cast<BlockId>(blk % kBlocks);
        // TRIM whatever is still live, as a host would before erasing.
        for (int pg = 0; pg < kPages; ++pg) {
            const Ppn ppn = m.encode(chip, block, pg);
            const auto it = p2l.find(ppn);
            if (it != p2l.end()) {
                const Lpn lpn = it->second;
                m.invalidateLpn(lpn);
                dropOld(lpn);
            }
        }
        m.onBlockErased(chip, block);
        written[blk] = 0;
    };
    const auto matches = [&](int step) {
        ASSERT_EQ(m.mappedCount(), l2p.size()) << "step " << step;
        for (Lpn lpn = 0; lpn < kLogical; ++lpn) {
            const auto it = l2p.find(lpn);
            ASSERT_EQ(m.lookup(lpn),
                      it == l2p.end() ? kInvalidPpn : it->second)
                << "lpn " << lpn << " step " << step;
        }
        for (Ppn ppn = 0; ppn < kChips * kBlocks * kPages; ++ppn) {
            const auto it = p2l.find(ppn);
            ASSERT_EQ(m.reverseLookup(ppn),
                      it == p2l.end() ? kInvalidLpn : it->second)
                << "ppn " << ppn << " step " << step;
            ASSERT_EQ(m.isValid(ppn), it != p2l.end());
        }
        for (int blk = 0; blk < kBlocksTotal; ++blk) {
            ASSERT_EQ(m.validPages(blk / kBlocks,
                                   static_cast<BlockId>(blk % kBlocks)),
                      valid[blk])
                << "block " << blk << " step " << step;
        }
    };

    std::mt19937_64 rng(0xae60);
    const auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };
    for (int step = 0; step < 4000; ++step) {
        const int op = pick(10);
        if (op < 7) {
            // Program a random LPN onto the next page of a random block
            // with room; if none has room, erase one first.
            std::vector<int> open;
            for (int blk = 0; blk < kBlocksTotal; ++blk) {
                if (written[blk] < kPages)
                    open.push_back(blk);
            }
            if (open.empty()) {
                const int blk = pick(kBlocksTotal);
                eraseBlock(blk);
                open.push_back(blk);
            }
            const int blk = open[pick(static_cast<int>(open.size()))];
            const Ppn ppn = m.encode(blk / kBlocks,
                                     static_cast<BlockId>(blk % kBlocks),
                                     written[blk]++);
            const auto lpn = static_cast<Lpn>(pick(kLogical));
            const Ppn expect_old = dropOld(lpn);
            ASSERT_EQ(m.update(lpn, ppn), expect_old) << "step " << step;
            l2p[lpn] = ppn;
            p2l[ppn] = lpn;
            valid[blockOf(ppn)] += 1;
        } else if (op < 9) {
            const auto lpn = static_cast<Lpn>(pick(kLogical));
            m.invalidateLpn(lpn);
            dropOld(lpn);
        } else {
            eraseBlock(pick(kBlocksTotal));
        }
        matches(step);
        if (HasFatalFailure())
            return;
    }
}

SsdConfig
tinyCfg()
{
    return SsdConfig::tiny();
}

TEST(BlockManager, AllocatesSequentiallyWithinOpenBlock)
{
    BlockManager bm(tinyCfg());
    BlockId blk;
    int page;
    ASSERT_TRUE(bm.allocate(0, 0, blk, page));
    EXPECT_EQ(page, 0);
    const BlockId first = blk;
    EXPECT_EQ(bm.state(0, first), BlockState::Open);
    for (int i = 1; i < tinyCfg().geometry.pagesPerBlock; ++i) {
        ASSERT_TRUE(bm.allocate(0, 0, blk, page));
        EXPECT_EQ(blk, first);
        EXPECT_EQ(page, i);
    }
    EXPECT_EQ(bm.state(0, first), BlockState::Full);
    // Next allocation opens a new block.
    ASSERT_TRUE(bm.allocate(0, 0, blk, page));
    EXPECT_NE(blk, first);
    EXPECT_EQ(page, 0);
}

TEST(BlockManager, PlaneExhaustionAndEraseRecovery)
{
    const auto cfg = tinyCfg();
    BlockManager bm(cfg);
    BlockId blk;
    int page;
    std::vector<BlockId> filled;
    // User allocations must stop with the GC reserve still intact.
    while (bm.allocate(0, 0, blk, page)) {
        if (page == cfg.geometry.pagesPerBlock - 1)
            filled.push_back(blk);
    }
    EXPECT_EQ(bm.freeBlocks(0, 0), BlockManager::kGcReservedBlocks);
    EXPECT_EQ(static_cast<int>(filled.size()),
              cfg.geometry.blocksPerPlane -
                  BlockManager::kGcReservedBlocks);
    // GC can still allocate from the reserve...
    ASSERT_TRUE(bm.allocate(0, 0, blk, page, true));
    EXPECT_EQ(bm.freeBlocks(0, 0), 0);
    // ...and an erase replenishes the pool for user writes again.
    bm.onBlockErased(0, filled.front());
    EXPECT_EQ(bm.freeBlocks(0, 0), 1);
    EXPECT_EQ(bm.state(0, filled.front()), BlockState::Free);
    EXPECT_FALSE(bm.allocate(0, 0, blk, page));  // reserve again
    ASSERT_TRUE(bm.allocate(0, 0, blk, page, true));
}

TEST(BlockManager, AllocateRunHandsOutWhatAllocateWould)
{
    // Runs of arbitrary length, on both write points, grant the pages
    // per-page allocate() would, open the same blocks in the same order
    // and run out of space at the same point.
    const auto cfg = tinyCfg();
    const int ppb = cfg.geometry.pagesPerBlock;
    for (const bool for_gc : {false, true}) {
        BlockManager bulk(cfg), ref(cfg);
        std::mt19937 rng(for_gc ? 3 : 4);
        for (;;) {
            const int want = 1 + static_cast<int>(rng() % (2 * ppb));
            BlockId blk;
            int page;
            const int run = bulk.allocateRun(0, 1, want, blk, page, for_gc);
            ASSERT_LE(run, want);
            ASSERT_LE(page + run, ppb) << "run crosses a block";
            int granted = 0;
            BlockId rblk;
            int rpage;
            while (granted < run && ref.allocate(0, 1, rblk, rpage, for_gc)) {
                ASSERT_EQ(rblk, blk);
                ASSERT_EQ(rpage, page + granted);
                ++granted;
            }
            ASSERT_EQ(granted, run);
            ASSERT_EQ(bulk.freeBlocks(0, 1), ref.freeBlocks(0, 1));
            ASSERT_EQ(bulk.state(0, blk), ref.state(0, blk));
            if (run == 0) {
                EXPECT_FALSE(ref.allocate(0, 1, rblk, rpage, for_gc));
                break;
            }
            if (run < want) {
                EXPECT_EQ(bulk.state(0, blk), BlockState::Full);
            }
        }
        EXPECT_EQ(bulk.freeBlocks(0, 1),
                  for_gc ? 0 : BlockManager::kGcReservedBlocks);
    }
}

TEST(BlockManager, GcWritePointIsSeparate)
{
    BlockManager bm(tinyCfg());
    BlockId user_blk, gc_blk;
    int page;
    ASSERT_TRUE(bm.allocate(0, 0, user_blk, page));
    ASSERT_TRUE(bm.allocate(0, 0, gc_blk, page, true));
    EXPECT_NE(user_blk, gc_blk);
    EXPECT_EQ(page, 0);  // GC stream has its own cursor
}

TEST(BlockManager, PlanesAreIndependent)
{
    BlockManager bm(tinyCfg());
    BlockId a, b;
    int pa, pb;
    ASSERT_TRUE(bm.allocate(0, 0, a, pa));
    ASSERT_TRUE(bm.allocate(0, 1, b, pb));
    EXPECT_NE(bm.planeOf(a), bm.planeOf(b));
    EXPECT_EQ(bm.planeOf(a), 0);
    EXPECT_EQ(bm.planeOf(b), 1);
}

TEST(BlockManager, EraseOfNonFullBlockPanics)
{
    BlockManager bm(tinyCfg());
    EXPECT_DEATH(bm.onBlockErased(0, 0), "Full state");
}

} // namespace
} // namespace aero
