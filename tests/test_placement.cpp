/**
 * @file
 * Placement images and their cache (ssd/placement.hh): a drive whose
 * placement is copied from the cache matches one that computed it, the
 * key holds exactly the configuration fields placement reads, and the
 * cache keeps to its byte budget, least recently used out first, from
 * any number of threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "conditioning_digest.hh"
#include "devchar/simstudy.hh"
#include "ssd/placement.hh"
#include "workload/presets.hh"
#include "workload/synthetic.hh"

namespace aero
{
namespace
{

/** tiny with enough warmup to run functional GC. */
SsdConfig
base()
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.warmupOverwriteFraction = 2.0;
    cfg.seed = 31;
    return cfg;
}

/** The image a standalone Ftl's prefill() and warmup() leave. */
std::shared_ptr<const PlacementImage>
placementOf(const SsdConfig &cfg)
{
    EventQueue eq;
    Ftl ftl(cfg, eq);
    ftl.prefill();
    ftl.warmup(static_cast<std::uint64_t>(
        static_cast<double>(cfg.logicalPages()) *
        cfg.warmupOverwriteFraction));
    return std::make_shared<const PlacementImage>(ftl.placementImage());
}

/** Replay 5000 ali.A requests; digest the events, end tick and GC work. */
std::uint64_t
replayDigest(Ssd &ssd)
{
    SyntheticConfig wc;
    wc.spec = workloadByName("ali.A");
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = 5000;
    wc.seed = 7;
    ssd.run(generateTrace(wc));
    test::Fnv1a h;
    h.add(ssd.eventQueue().processed());
    h.add(ssd.eventQueue().now());
    h.add(ssd.metrics().gcMigratedPages);
    return h.value();
}

using Tweak = std::pair<const char *, std::function<void(SsdConfig &)>>;

// Single-threaded and slow under ThreadSanitizer, so outside the
// `Placement` name filter of the tsan test preset.
TEST(CachedConditioning, BenchDrivesOfOnePlacementMatchFreshOnes)
{
    // fig14's grid at two PECs and both arbitrations: twenty drives, one
    // placement. Each drive copied from the shared cache matches one
    // that placed on its own and a standalone Ftl.
    PlacementCache shared;
    int drives = 0;
    for (const SchemeKind scheme : allSchemes()) {
        for (const double pec : {0.0, 2500.0}) {
            for (const Arbitration arb :
                 {Arbitration::Legacy, Arbitration::Queued}) {
                SsdConfig cfg = SsdConfig::bench();
                cfg.scheme = scheme;
                cfg.initialPec = pec;
                cfg.arbitration = arb;
                cfg.seed = 7 ^ 0x51ULL;
                const std::string label =
                    std::string(schemeKindName(scheme)) + " pec " +
                    std::to_string(pec) + " " + arbitrationName(arb);
                PlacementCache own;
                Ssd fresh(cfg, own);
                Ssd cached(cfg, shared);
                drives += 1;
                const std::uint64_t want = test::standaloneStateDigest(cfg);
                EXPECT_EQ(test::conditionedStateDigest(fresh), want)
                    << label;
                EXPECT_EQ(test::conditionedStateDigest(cached), want)
                    << label;
                EXPECT_EQ(replayDigest(cached), replayDigest(fresh))
                    << label;
            }
        }
    }
    const PlacementCache::Stats s = shared.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(drives - 1));
    EXPECT_EQ(s.images, 1u);
}

TEST(PlacementKey, FieldsOutsideTheKeyLeaveTheImageUnchanged)
{
    const SsdConfig cfg = base();
    const auto want = placementOf(cfg);
    ASSERT_FALSE(want->eraseLog.empty()) << "warmup ran no GC";
    const Tweak tweaks[] = {
        {"scheme", [](SsdConfig &c) { c.scheme = SchemeKind::Aero; }},
        {"scheme dpes", [](SsdConfig &c) { c.scheme = SchemeKind::Dpes; }},
        {"initialPec", [](SsdConfig &c) { c.initialPec = 2500.0; }},
        {"chipType",
         [](SsdConfig &c) { c.chipType = ChipType::Mlc3d48L; }},
        {"arbitration",
         [](SsdConfig &c) { c.arbitration = Arbitration::Queued; }},
        {"schemeOptions.seed",
         [](SsdConfig &c) { c.schemeOptions.seed = 5; }},
        {"schemeOptions.shallowErasure",
         [](SsdConfig &c) { c.schemeOptions.shallowErasure = false; }},
        {"schemeOptions.mispredictionRate",
         [](SsdConfig &c) { c.schemeOptions.mispredictionRate = 0.2; }},
        {"schemeOptions.rberRequirement",
         [](SsdConfig &c) { c.schemeOptions.rberRequirement = 40; }},
        {"pageSizeKB", [](SsdConfig &c) { c.pageSizeKB = 8; }},
        {"channelXferPerPage",
         [](SsdConfig &c) { c.channelXferPerPage = 3 * kUs; }},
        {"hostOverhead", [](SsdConfig &c) { c.hostOverhead = 9 * kUs; }},
        {"channelCmdOverhead",
         [](SsdConfig &c) { c.channelCmdOverhead = 2 * kUs; }},
        {"suspension",
         [](SsdConfig &c) { c.suspension = SuspensionMode::None; }},
        {"suspendEntryLatency",
         [](SsdConfig &c) { c.suspendEntryLatency = 10 * kUs; }},
        {"suspendResumeOverhead",
         [](SsdConfig &c) { c.suspendResumeOverhead = 10 * kUs; }},
        {"wlEraseDelta", [](SsdConfig &c) { c.wlEraseDelta = 2; }},
        {"slo",
         [](SsdConfig &c) {
             c.arbitration = Arbitration::Queued;
             c.sloPolicy = SloPolicy::ThrottleWfq;
             c.slo = parseTenantSloSpec("0:weight=4:iops=1000");
         }},
    };
    for (const auto &[name, tweak] : tweaks) {
        SsdConfig other = cfg;
        tweak(other);
        EXPECT_TRUE(PlacementKey(other) == PlacementKey(cfg)) << name;
        EXPECT_TRUE(*placementOf(other) == *want) << name;
    }
}

TEST(PlacementKey, AnyKeyFieldChangeMissesTheCache)
{
    const SsdConfig cfg = base();
    PlacementCache cache;
    cache.insert(PlacementKey(cfg), placementOf(cfg));
    const Tweak tweaks[] = {
        {"channels", [](SsdConfig &c) { c.channels = 4; }},
        {"chipsPerChannel", [](SsdConfig &c) { c.chipsPerChannel = 2; }},
        {"planes", [](SsdConfig &c) { c.geometry.planes = 4; }},
        {"blocksPerPlane",
         [](SsdConfig &c) { c.geometry.blocksPerPlane = 20; }},
        {"pagesPerBlock",
         [](SsdConfig &c) { c.geometry.pagesPerBlock = 64; }},
        {"opRatio", [](SsdConfig &c) { c.opRatio = 0.3; }},
        {"gcLowWatermark", [](SsdConfig &c) { c.gcLowWatermark = 2; }},
        {"gcHighWatermark", [](SsdConfig &c) { c.gcHighWatermark = 6; }},
        {"gcPolicy",
         [](SsdConfig &c) { c.gcPolicy = GcPolicy::CostBenefit; }},
        {"wearLevel",
         [](SsdConfig &c) { c.wearLevel = WearLevel::Dynamic; }},
        {"prefillFraction", [](SsdConfig &c) { c.prefillFraction = 0.5; }},
        {"warmupOverwriteFraction",
         [](SsdConfig &c) { c.warmupOverwriteFraction = 1.0; }},
        {"seed", [](SsdConfig &c) { c.seed = 32; }},
    };
    for (const auto &[name, tweak] : tweaks) {
        SsdConfig other = cfg;
        tweak(other);
        EXPECT_EQ(cache.find(PlacementKey(other)), nullptr) << name;
    }
    EXPECT_NE(cache.find(PlacementKey(cfg)), nullptr);
    EXPECT_EQ(cache.stats().misses, std::size(tweaks));
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlacementCache, CountsHitsMissesAndBytes)
{
    PlacementCache cache;
    const SsdConfig cfg = base();
    Ssd first(cfg, cache);
    const PlacementImage image = first.ftl().placementImage();
    PlacementCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.images, 1u);
    EXPECT_EQ(s.bytes, image.bytes());
    EXPECT_GE(image.bytes(), image.l2p.size() * sizeof(std::uint32_t));

    SsdConfig worn = cfg;
    worn.scheme = SchemeKind::Aero;
    worn.initialPec = 2500.0;
    Ssd second(worn, cache);
    s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.images, 1u);
    EXPECT_TRUE(second.ftl().placementImage() == image);
}

TEST(PlacementCache, EvictsTheLeastRecentlyUsedImage)
{
    SsdConfig a = base(), b = base(), c = base();
    b.seed = 41;
    c.seed = 51;
    const auto ia = placementOf(a), ib = placementOf(b), ic = placementOf(c);
    const std::size_t most =
        std::max({ia->bytes(), ib->bytes(), ic->bytes()});
    // Any two images fit and no three do: the l2p table dominates.
    PlacementCache cache(2 * most);
    ASSERT_GT(ia->bytes() + ib->bytes() + ic->bytes(), 2 * most);
    cache.insert(PlacementKey(a), ia);
    cache.insert(PlacementKey(b), ib);
    EXPECT_EQ(cache.find(PlacementKey(a)), ia);  // b is now the oldest
    cache.insert(PlacementKey(c), ic);
    EXPECT_EQ(cache.find(PlacementKey(b)), nullptr);
    EXPECT_EQ(cache.find(PlacementKey(a)), ia);
    EXPECT_EQ(cache.find(PlacementKey(c)), ic);
    const PlacementCache::Stats s = cache.stats();
    EXPECT_EQ(s.images, 2u);
    EXPECT_EQ(s.bytes, ia->bytes() + ic->bytes());
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(PlacementCache, NeverRetainsAnImageOverTheBudget)
{
    const SsdConfig cfg = base();
    const auto image = placementOf(cfg);
    PlacementCache cache(image->bytes() - 1);
    cache.insert(PlacementKey(cfg), image);
    EXPECT_EQ(cache.stats().images, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.find(PlacementKey(cfg)), nullptr);

    // A drive placed through it conditions as ever and leaves nothing.
    Ssd ssd(cfg, cache);
    EXPECT_EQ(test::conditionedStateDigest(ssd),
              test::standaloneStateDigest(cfg));
    EXPECT_EQ(cache.stats().images, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);

    // The paper drive's l2p table alone is over the process budget.
    const SsdConfig paper = SsdConfig::paper();
    const std::size_t paperBytes = placementBytes(
        paper.logicalPages(),
        static_cast<std::size_t>(paper.totalChips()) * paper.blocksPerChip(),
        0);
    EXPECT_GT(paperBytes, std::size_t{200} << 20);
    EXPECT_FALSE(PlacementCache::process().retains(paperBytes));
}

TEST(PlacementCache, DrivesSharingOneKeyBuildConcurrently)
{
    // Four threads build drives of one placement key at once through
    // the process cache: each misses or hits, and each matches its
    // standalone drive.
    constexpr int kThreads = 4;
    const SchemeKind schemes[kThreads] = {SchemeKind::Baseline,
                                          SchemeKind::Aero, SchemeKind::Dpes,
                                          SchemeKind::IIspe};
    std::vector<SsdConfig> cfgs;
    for (const SchemeKind s : schemes) {
        SsdConfig cfg = base();
        cfg.seed = 61;
        cfg.scheme = s;
        cfg.initialPec = 1000.0;
        cfgs.push_back(cfg);
    }
    PlacementCache &cache = PlacementCache::process();
    const PlacementCache::Stats before = cache.stats();
    std::vector<std::uint64_t> digests(kThreads, 0);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            Ssd ssd(cfgs[t]);
            digests[t] = test::conditionedStateDigest(ssd);
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(digests[t], test::standaloneStateDigest(cfgs[t]))
            << schemeKindName(schemes[t]);
    }
    const PlacementCache::Stats after = cache.stats();
    EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
              static_cast<std::uint64_t>(kThreads));
    EXPECT_NE(cache.find(PlacementKey(cfgs[0])), nullptr);
}

} // namespace
} // namespace aero
