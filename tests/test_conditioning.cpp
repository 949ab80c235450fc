/**
 * @file
 * Drive conditioning (`Ssd(cfg)`: preAge, prefill, warmup with inline
 * functional GC) pinned bit for bit. Each case digests the full drive
 * state right after construction, then replays 20k ali.A requests and
 * digests the event count, final tick and GC-migrated pages. The pinned
 * values were captured from the per-page prefill and GC relocation
 * loops that the bulk conditioning path replaced, which also erased
 * inline: they pin the placement-then-wear split too, on a cache miss
 * and on a hit alike.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "conditioning_digest.hh"
#include "workload/presets.hh"
#include "workload/synthetic.hh"

namespace aero
{
namespace
{

struct ConditioningCase
{
    const char *name;
    SsdConfig cfg;
    std::uint64_t stateDigest;
    std::uint64_t replayDigest;
};

SsdConfig
make(SsdConfig cfg, SchemeKind scheme, const char *gc, const char *wl,
     double pec, std::uint64_t seed)
{
    cfg.scheme = scheme;
    cfg.gcPolicy = enumFromName<GcPolicy>(gc);
    cfg.wearLevel = enumFromName<WearLevel>(wl);
    cfg.initialPec = pec;
    cfg.seed = seed;
    return cfg;
}

/**
 * tiny with enough warmup to run functional GC: the default 0.3
 * overwrites never bring its 45%-OP planes down to the low mark.
 */
SsdConfig
tiny()
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.warmupOverwriteFraction = 2.0;
    return cfg;
}

/** tiny with a high mark that prefill reaches before the logical end. */
SsdConfig
highMarkTiny()
{
    SsdConfig cfg = make(tiny(), SchemeKind::Baseline, "greedy",
                         "none", 0.0, 5);
    cfg.gcHighWatermark = 8;
    return cfg;
}

/** bench, partly prefilled, under static wear leveling. */
SsdConfig
partialBench()
{
    SsdConfig cfg = make(SsdConfig::bench(), SchemeKind::Baseline, "greedy",
                         "static", 500.0, 17);
    cfg.prefillFraction = 0.6;
    cfg.warmupOverwriteFraction = 0.9;
    return cfg;
}

const ConditioningCase kCases[] = {
    {"tiny_baseline_greedy_none_pec0",
     make(tiny(), SchemeKind::Baseline, "greedy", "none", 0.0,
          99),
     0x6d499110a9236fe3ULL, 0x63a26b038fae85f2ULL},
    {"tiny_aero_costbenefit_dynamic_pec2500",
     make(tiny(), SchemeKind::Aero, "cost-benefit", "dynamic",
          2500.0, 7),
     0x04e717d1f9db786cULL, 0x9fede716a0fc7228ULL},
    {"tiny_baseline_greedy_dynamic_pec2500",
     make(tiny(), SchemeKind::Baseline, "greedy", "dynamic",
          2500.0, 11),
     0x82c78596fddb1a3bULL, 0xef17615c042fb260ULL},
    {"tiny_highmark_skip", highMarkTiny(), 0x715a715c9827c7daULL,
     0xea78cbdd88504a35ULL},
    {"bench_baseline_greedy_none_pec0",
     make(SsdConfig::bench(), SchemeKind::Baseline, "greedy", "none", 0.0,
          7),
     0xcf8971ebe18bda4bULL, 0x93e99b32b27a846cULL},
    {"bench_aero_greedy_none_pec2500",
     make(SsdConfig::bench(), SchemeKind::Aero, "greedy", "none", 2500.0,
          7 ^ 0x51ULL),
     0x0b19f2dbb9ad7b74ULL, 0xe531e6ff54e1be66ULL},
    {"bench_aero_costbenefit_dynamic_pec2500",
     make(SsdConfig::bench(), SchemeKind::Aero, "cost-benefit", "dynamic",
          2500.0, 21),
     0x0c3f650f20481322ULL, 0x035b01d868463daeULL},
    {"bench_baseline_costbenefit_none_pec0",
     make(SsdConfig::bench(), SchemeKind::Baseline, "cost-benefit", "none",
          0.0, 13),
     0x38d18435f84876fcULL, 0x61405f7f77392828ULL},
    {"bench_partial_prefill_static", partialBench(), 0x63c07cf5641d75b2ULL,
     0x7483366ed5cebaf3ULL},
};

void
PrintTo(const ConditioningCase &c, std::ostream *os)
{
    *os << c.name;
}

class Conditioning : public ::testing::TestWithParam<ConditioningCase>
{
};

/** Replay 20k ali.A requests; digest the events, end tick and GC work. */
std::uint64_t
replayDigest(Ssd &ssd, std::uint64_t seed)
{
    SyntheticConfig wc;
    wc.spec = workloadByName("ali.A");
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = 20000;
    wc.seed = seed;
    SyntheticTraceStream trace(wc);
    ssd.run(trace);
    test::Fnv1a replay;
    replay.add(ssd.eventQueue().processed());
    replay.add(ssd.eventQueue().now());
    replay.add(ssd.metrics().gcMigratedPages);
    return replay.value();
}

TEST_P(Conditioning, StateDigestIsPinned)
{
    const ConditioningCase &c = GetParam();
    Ssd ssd(c.cfg);
    EXPECT_GT(ssd.ftl().warmupErases(), 0u) << "warmup ran no GC";
    const std::uint64_t state = test::conditionedStateDigest(ssd);
    const std::uint64_t replay = replayDigest(ssd, c.cfg.seed);
    std::printf("%s: state 0x%016llxULL replay 0x%016llxULL\n", c.name,
                static_cast<unsigned long long>(state),
                static_cast<unsigned long long>(replay));
    EXPECT_EQ(state, c.stateDigest);
    EXPECT_EQ(replay, c.replayDigest);
}

TEST_P(Conditioning, CachedDriveMatchesFreshAndStandalone)
{
    // A drive that copies its placement from the cache, one that
    // computed it, and a standalone Ftl conditioned step by step all
    // match the pins.
    const ConditioningCase &c = GetParam();
    PlacementCache cache;
    Ssd fresh(c.cfg, cache);
    ASSERT_EQ(cache.stats().misses, 1u);
    ASSERT_EQ(cache.stats().images, 1u);
    Ssd cached(c.cfg, cache);
    ASSERT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(test::standaloneStateDigest(c.cfg), c.stateDigest);
    EXPECT_EQ(test::conditionedStateDigest(fresh), c.stateDigest);
    EXPECT_EQ(test::conditionedStateDigest(cached), c.stateDigest);
    EXPECT_EQ(replayDigest(fresh, c.cfg.seed), c.replayDigest);
    EXPECT_EQ(replayDigest(cached, c.cfg.seed), c.replayDigest);
}

INSTANTIATE_TEST_SUITE_P(
    Drives, Conditioning, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<ConditioningCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace aero
