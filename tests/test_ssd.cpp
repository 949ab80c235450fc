/**
 * @file
 * End-to-end SSD simulator tests: request completion, GC activity, erase
 * suspension, write stalls, and cross-scheme behaviour on a tiny drive.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "devchar/simstudy.hh"
#include "nand/population.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace aero
{
namespace
{

SsdConfig
tinyCfg(SchemeKind scheme = SchemeKind::Baseline)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.scheme = scheme;
    cfg.seed = 99;
    return cfg;
}

Trace
makeTrace(const Ssd &ssd, std::uint64_t n, double intensity = 1.0,
          const char *wl = "prxy")
{
    SyntheticConfig wc;
    wc.spec = workloadByName(wl);
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = n;
    wc.seed = 31;
    wc.intensityScale = intensity;
    return generateTrace(wc);
}

TEST(Ssd, CompletesEveryRequest)
{
    Ssd ssd(tinyCfg());
    const auto trace = makeTrace(ssd, 3000);
    std::uint64_t reads = 0, writes = 0;
    for (const auto &r : trace)
        (r.op == IoOp::Read ? reads : writes) += 1;
    ssd.run(trace);
    const auto &m = ssd.metrics();
    EXPECT_EQ(m.reads, reads);
    EXPECT_EQ(m.writes, writes);
    EXPECT_GT(m.readLatency.mean(), 0.0);
    EXPECT_GT(m.writeLatency.mean(), 0.0);
    EXPECT_GT(m.iops(), 0.0);
}

TEST(Ssd, LatencyFloorsAreSane)
{
    Ssd ssd(tinyCfg());
    const auto trace = makeTrace(ssd, 2000);
    ssd.run(trace);
    const auto &m = ssd.metrics();
    const auto &cfg = ssd.config();
    // A read can never be faster than sense + transfer + host overhead.
    EXPECT_GE(m.readLatency.min(),
              40 * kUs + cfg.channelXferPerPage + cfg.hostOverhead);
    // A write can never be faster than transfer + program + overhead.
    EXPECT_GE(m.writeLatency.min(),
              cfg.channelXferPerPage + 350 * kUs + cfg.hostOverhead);
}

TEST(Ssd, GarbageCollectionRunsAndConservesCapacity)
{
    Ssd ssd(tinyCfg());
    const auto trace = makeTrace(ssd, 6000, 1.0, "ali.A");  // write-heavy
    ssd.run(trace);
    const auto &m = ssd.metrics();
    EXPECT_GT(m.erases, 0u);
    EXPECT_GT(m.gcInvocations, 0u);
    EXPECT_GE(m.writeAmplification(), 1.0);
    // After the run every plane must still have blocks available.
    auto &ftl = ssd.ftl();
    const auto &bm = ftl.blockManager();
    for (int c = 0; c < ssd.config().totalChips(); ++c) {
        for (int p = 0; p < ssd.config().geometry.planes; ++p)
            EXPECT_GT(bm.freeBlocks(c, p), 0);
    }
}

TEST(Ssd, MappingStaysConsistentAfterGc)
{
    Ssd ssd(tinyCfg());
    const auto trace = makeTrace(ssd, 6000, 1.0, "ali.A");
    ssd.run(trace);
    const auto &mapping = ssd.ftl().pageMapping();
    // Every mapped LPN must reverse-map to itself.
    std::uint64_t mapped = 0;
    for (Lpn lpn = 0; lpn < mapping.logicalPages(); ++lpn) {
        const Ppn ppn = mapping.lookup(lpn);
        if (ppn == kInvalidPpn)
            continue;
        EXPECT_EQ(mapping.reverseLookup(ppn), lpn);
        ++mapped;
    }
    EXPECT_EQ(mapped, mapping.mappedCount());
    EXPECT_GT(mapped, 0u);
}

TEST(Ssd, SuspensionModeControlsPreemption)
{
    auto run_with = [&](SuspensionMode mode) {
        SsdConfig cfg = tinyCfg();
        cfg.suspension = mode;
        Ssd ssd(cfg);
        ssd.run(makeTrace(ssd, 6000, 2.0));
        return ssd.metrics().eraseSuspensions;
    };
    EXPECT_GT(run_with(SuspensionMode::MidSegment), 0u);
    EXPECT_EQ(run_with(SuspensionMode::None), 0u);
}

TEST(Ssd, SuspensionImprovesReadTail)
{
    auto tail = [&](SuspensionMode mode) {
        SsdConfig cfg = tinyCfg();
        cfg.suspension = mode;
        cfg.initialPec = 2500;
        Ssd ssd(cfg);
        ssd.run(makeTrace(ssd, 8000, 2.0));
        return ssd.metrics().readLatency.percentile(0.999);
    };
    EXPECT_LT(tail(SuspensionMode::MidSegment),
              tail(SuspensionMode::None));
}

TEST(Ssd, DpesSlowsWrites)
{
    SsdConfig base_cfg = tinyCfg(SchemeKind::Baseline);
    SsdConfig dpes_cfg = tinyCfg(SchemeKind::Dpes);
    Ssd base(base_cfg), dpes(dpes_cfg);
    const auto trace = makeTrace(base, 4000);
    base.run(trace);
    dpes.run(trace);
    EXPECT_GT(dpes.metrics().writeLatency.mean(),
              base.metrics().writeLatency.mean() * 1.05);
    // Reads are not directly affected on average.
    EXPECT_NEAR(dpes.metrics().readLatency.mean(),
                base.metrics().readLatency.mean(),
                base.metrics().readLatency.mean() * 0.3);
}

TEST(Ssd, AeroShortensErases)
{
    SsdConfig a = tinyCfg(SchemeKind::Baseline);
    SsdConfig b = tinyCfg(SchemeKind::Aero);
    a.initialPec = 2500;
    b.initialPec = 2500;
    Ssd base(a), aero(b);
    const auto trace = makeTrace(base, 5000, 1.0, "ali.A");
    base.run(trace);
    aero.run(trace);
    ASSERT_GT(base.metrics().erases, 0u);
    ASSERT_GT(aero.metrics().erases, 0u);
    EXPECT_LT(aero.metrics().avgEraseLatencyMs(),
              base.metrics().avgEraseLatencyMs() * 0.97);
}

TEST(Ssd, RunsBackToBack)
{
    Ssd ssd(tinyCfg());
    ssd.run(makeTrace(ssd, 1000));
    const auto t1 = ssd.eventQueue().now();
    const auto reads1 = ssd.metrics().reads;
    ssd.run(makeTrace(ssd, 1000));
    EXPECT_GT(ssd.eventQueue().now(), t1);
    EXPECT_GT(ssd.metrics().reads, reads1);
}

TEST(Ssd, ConfigSummaryMentionsScheme)
{
    SsdConfig cfg = tinyCfg(SchemeKind::Aero);
    EXPECT_NE(cfg.summary().find("AERO"), std::string::npos);
    EXPECT_GT(cfg.logicalPages(), 0u);
    EXPECT_LT(cfg.logicalPages(), cfg.physicalPages());
}

TEST(Ftl, ChipsShareOneWearModel)
{
    // SweepRunner's threads build drives concurrently. Run first in the
    // process (CTest runs each test alone), these threads race to build
    // the model, and every one must get the same model.
    constexpr int kThreads = 8;
    std::vector<const WearModel *> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&seen, t] {
            Ssd ssd(SsdConfig::tiny());
            seen[t] = &ssd.ftl().chipAt(0).wearModel();
        });
    }
    for (auto &th : threads)
        th.join();
    const ChipType type = SsdConfig::tiny().chipType;
    const WearModel *model = WearModel::forType(type).get();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(seen[t], model) << "thread " << t;

    // Every chip of a drive, another drive of the type and a
    // characterization population of the type hold that model.
    SsdConfig cfg = tinyCfg();
    cfg.channels = 4;
    cfg.chipsPerChannel = 2;
    ASSERT_EQ(cfg.chipType, type);
    EventQueue eq;
    Ftl ftl(cfg, eq);
    for (int i = 0; i < cfg.totalChips(); ++i)
        EXPECT_EQ(&ftl.chipAt(i).wearModel(), model) << "chip " << i;
    SsdConfig other = tinyCfg(SchemeKind::Aero);
    other.seed = 5;
    EventQueue eq2;
    Ftl second(other, eq2);
    EXPECT_EQ(&second.chipAt(0).wearModel(), model);
    PopulationConfig pc;
    pc.type = type;
    pc.numChips = 2;
    ChipPopulation pop(pc);
    EXPECT_EQ(&pop.chip(0).wearModel(), model);
    EXPECT_EQ(&pop.chip(1).wearModel(), model);

    // Another chip type gets its own model, of its own parameters.
    SsdConfig mlc = tinyCfg();
    mlc.chipType = ChipType::Mlc3d48L;
    EventQueue eq3;
    Ftl third(mlc, eq3);
    EXPECT_NE(&third.chipAt(0).wearModel(), model);
    EXPECT_EQ(third.chipAt(0).wearModel().params().type, ChipType::Mlc3d48L);
    EXPECT_EQ(&third.chipAt(0).wearModel(),
              WearModel::forType(ChipType::Mlc3d48L).get());
}

TEST(Ftl, PreAgedBlocksMatchStandaloneChips)
{
    // Ftl draws each chip's process-variation factor, then its seed,
    // from one seeder. A chip built alone (its own wear model) from the
    // same draws and aged the same way must agree bit for bit.
    SsdConfig cfg = tinyCfg();
    cfg.initialPec = 2500.0;
    EventQueue eq;
    Ftl ftl(cfg, eq);
    const auto params = ChipParams::forType(cfg.chipType);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    Rng seeder(cfg.seed);
    for (int i = 0; i < cfg.totalChips(); ++i) {
        const double chip_pv = seeder.lognormFactor(params.chipPvSigma);
        const std::uint64_t chip_seed = seeder.next();
        NandChip alone(params, cfg.geometry, chip_seed, chip_pv);
        NandChip &shared = ftl.chipAt(i);
        ASSERT_EQ(shared.numBlocks(), alone.numBlocks());
        EXPECT_EQ(bits(shared.chipPv()), bits(alone.chipPv()));
        for (int b = 0; b < alone.numBlocks(); ++b) {
            const auto id = static_cast<BlockId>(b);
            alone.ageBaseline(id, static_cast<int>(cfg.initialPec));
            EXPECT_EQ(bits(shared.block(id).pvZ()),
                      bits(alone.block(id).pvZ()));
            EXPECT_EQ(bits(shared.block(id).wear()),
                      bits(alone.block(id).wear()))
                << "chip " << i << " block " << b;
            EXPECT_EQ(bits(shared.block(id).pec()),
                      bits(alone.block(id).pec()))
                << "chip " << i << " block " << b;
        }
    }
}

TEST(SimStudy, RunSimPointProducesConsistentResult)
{
    SimPoint pt;
    pt.workload = "hm";
    pt.requests = 4000;
    pt.pec = 500.0;
    const auto r = runSimPoint(pt);
    EXPECT_GT(r.avgReadUs, 50.0);
    EXPECT_GT(r.avgWriteUs, 350.0);
    EXPECT_GE(r.p999999Us, r.p9999Us);
    EXPECT_GE(r.p9999Us, r.p999Us);
    EXPECT_GT(r.iops, 0.0);
}

TEST(SimStudy, DeterministicForSeed)
{
    SimPoint pt;
    pt.workload = "stg";
    pt.requests = 2000;
    const auto a = runSimPoint(pt);
    const auto b = runSimPoint(pt);
    EXPECT_DOUBLE_EQ(a.p9999Us, b.p9999Us);
    EXPECT_EQ(a.erases, b.erases);
}

} // namespace
} // namespace aero
