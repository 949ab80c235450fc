#include "ssd/ftl.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "core/aero_scheme.hh"

namespace aero
{

// cfg_.validate() runs before the mem-initializer list sizes any member
// off the geometry, so a misconfigured drive dies with a clear message
// instead of a huge allocation.
Ftl::Ftl(const SsdConfig &cfg_, EventQueue &eq_)
    : cfg(cfg_.validate()), eq(eq_),
      mapping(cfg.logicalPages(), cfg.totalChips(),
              cfg.blocksPerChip(), cfg.geometry.pagesPerBlock),
      blocks(cfg)
{
    // Every chip of every drive of this type shares one wear model.
    const auto wear = WearModel::forType(cfg.chipType);
    const ChipParams &params = wear->params();
    Rng seeder(cfg.seed);
    chips.reserve(cfg.totalChips());
    for (int i = 0; i < cfg.totalChips(); ++i) {
        // Named in draw order: argument evaluation order is unspecified.
        const double chip_pv = seeder.lognormFactor(params.chipPvSigma);
        const std::uint64_t chip_seed = seeder.next();
        chips.emplace_back(wear, cfg.geometry, chip_seed, chip_pv);
    }
    preAge(cfg.initialPec);
    channels = std::vector<Channel>(cfg.channels);  // built in place
    stats.channelBusyTicks.assign(cfg.channels, 0);
    for (int c = 0; c < cfg.channels; ++c)
        channels[c].init(c, &eq, &stats);
    if (sloPolicyWeights(cfg.sloPolicy) && !cfg.slo.empty()) {
        std::vector<std::uint32_t> weights(
            static_cast<std::size_t>(cfg.slo.maxTenant()) + 1, 1);
        for (const TenantSlo &t : cfg.slo.tenants)
            weights[t.tenant] = t.weight;
        for (auto &ch : channels)
            ch.enableWfq(weights);
    }
    for (int i = 0; i < cfg.totalChips(); ++i) {
        SchemeOptions opts = cfg.schemeOptions;
        opts.seed = seeder.next();
        schemes.push_back(makeEraseScheme(cfg.scheme, chips[i], opts));
    }
    for (int i = 0; i < cfg.totalChips(); ++i) {
        agents.push_back(std::make_unique<ChipAgent>(
            i, chips[i], *schemes[i], eq, cfg,
            channels[i / cfg.chipsPerChannel], *this, stats));
    }
    gcJobs.resize(static_cast<std::size_t>(cfg.totalChips()) *
                  cfg.geometry.planes);
    burstTouched.assign(cfg.totalChips(), 0);
    burstChips.reserve(cfg.totalChips());
    gcLive.resize(static_cast<std::size_t>(cfg.geometry.pagesPerBlock));
    hostPageDone.init<Ftl, &Ftl::onHostPageDone>(this);
}

Ftl::~Ftl() = default;

NandChip &
Ftl::chipAt(int i)
{
    AERO_CHECK(i >= 0 && i < static_cast<int>(chips.size()),
               "chip index out of range");
    return chips[i];
}

void
Ftl::preAge(double pec)
{
    if (pec <= 0.0)
        return;
    for (auto &chip : chips) {
        for (int b = 0; b < chip.numBlocks(); ++b)
            chip.ageBaseline(static_cast<BlockId>(b),
                             static_cast<int>(pec));
    }
}

void
Ftl::prefill()
{
    placePrefill();
    wear();
}

void
Ftl::warmup(std::uint64_t overwrites)
{
    placeWarmup(overwrites);
    wear();
}

void
Ftl::condition(PlacementCache &cache)
{
    if (cfg.prefillFraction <= 0.0)
        return;  // a fresh drive: nothing to place
    const PlacementKey key(cfg);
    if (const auto image = cache.find(key)) {
        restorePlacement(*image);
    } else {
        placePrefill();
        placeWarmup(static_cast<std::uint64_t>(
            static_cast<double>(cfg.logicalPages()) *
            cfg.warmupOverwriteFraction));
        // Copy the l2p out only when the cache would keep it: a
        // paper-drive image would double the drive's largest table.
        if (cache.retains(placementBytes(mapping.logicalPages(),
                                         blocks.blockCount(),
                                         eraseLog.size()))) {
            cache.insert(key, std::make_shared<const PlacementImage>(
                                  placementImage()));
        }
    }
    wear();
}

PlacementImage
Ftl::placementImage() const
{
    return PlacementImage{mapping.l2pTable(), blocks, writePointer,
                          eraseLog};
}

void
Ftl::restorePlacement(const PlacementImage &image)
{
    AERO_CHECK(eraseLog.empty() && writePointer == PlaneCursor{},
               "restoring a placement over a conditioned drive");
    mapping.restore(image.l2p);
    blocks = image.blocks;
    writePointer = image.writePointer;
    eraseLog = image.eraseLog;
}

void
Ftl::wear()
{
    for (; erasesWorn < eraseLog.size(); ++erasesWorn) {
        const ErasedBlock &e = eraseLog[erasesWorn];
        eraseNow(*schemes[e.chip], e.block);
    }
    for (int c = 0; c < cfg.totalChips(); ++c) {
        for (int b = 0; b < cfg.blocksPerChip(); ++b) {
            const auto id = static_cast<BlockId>(b);
            chips[c].setProgrammedPages(id, blocks.programmedPages(c, id));
        }
    }
}

void
Ftl::placePrefill()
{
    // One pass that leaves the state the per-LPN round-robin cursor left:
    // LPN i goes to page i / N of plane key i % N (N = chips x planes),
    // because on a fresh drive every plane accepts the same number of
    // pages before prefill has to skip it.
    const int keys = cfg.totalChips() * cfg.geometry.planes;
    AERO_CHECK(mapping.mappedCount() == 0 && writePointer.chip == 0 &&
                   writePointer.plane == 0,
               "prefill needs a fresh drive");
    for (int key = 0; key < keys; ++key) {
        AERO_CHECK(blocks.freeBlocks(key / cfg.geometry.planes,
                                     key % cfg.geometry.planes) ==
                       cfg.geometry.blocksPerPlane,
                   "prefill needs a fresh drive");
    }
    const auto ppb = static_cast<std::uint64_t>(cfg.geometry.pagesPerBlock);
    // Keep the GC headroom: a plane opens a block only while it is above
    // the high mark (and the GC reserve), and every later page re-checks
    // the mark, so the block that brings the plane to it holds one page.
    std::uint64_t cap = 0;
    for (int free = cfg.geometry.blocksPerPlane;
         free > cfg.gcHighWatermark &&
         free > BlockManager::kGcReservedBlocks;
         --free) {
        if (free - 1 <= cfg.gcHighWatermark) {
            cap += 1;
            break;
        }
        cap += ppb;
    }
    const auto total = static_cast<Lpn>(
        static_cast<double>(cfg.logicalPages()) * cfg.prefillFraction);
    const Lpn placed = std::min<Lpn>(total, cap * keys);
    const Lpn rounds = placed / keys;
    const Lpn extra = placed % keys;  //!< keys with one more page
    // Blocks open in the order the cursor reached them: block by block
    // across the planes, in key order.
    for (Lpn first = 0; first < rounds + (extra != 0); first += ppb) {
        for (int key = 0; key < keys; ++key) {
            const Lpn pages = rounds + (static_cast<Lpn>(key) < extra);
            if (pages <= first)
                break;  // later keys hold no more pages than this one
            const int chip = key / cfg.geometry.planes;
            const int plane = key % cfg.geometry.planes;
            const auto want = static_cast<int>(std::min(ppb, pages - first));
            BlockId blk;
            int page;
            const int run = blocks.allocateRun(chip, plane, want, blk, page);
            AERO_CHECK(run == want && page == 0, "prefill placed ", run,
                       " of ", want, " pages in block ", blk);
            mapping.mapFreshRun(first * keys + key, keys, run,
                                mapping.encode(chip, blk, 0));
        }
    }
    const auto next = static_cast<int>(extra);
    writePointer = PlaneCursor{next / cfg.geometry.planes,
                               next % cfg.geometry.planes};
    if (placed < total)
        AERO_WARN("prefill stopped early at LPN ", placed, " of ", total);
}

void
Ftl::placeWarmup(std::uint64_t overwrites)
{
    Rng rng(cfg.seed ^ 0x3a3aULL);
    const auto span = static_cast<Lpn>(
        static_cast<double>(cfg.logicalPages()) * cfg.prefillFraction);
    if (span == 0)
        return;
    // The LPNs come from a private RNG, so they can be drawn ahead of use
    // without changing the sequence. A ring of the next kAhead LPNs lets
    // each overwrite prefetch its l2p entry kAhead writes early, and the
    // p2l entry and valid count of its old page kNear writes early. A
    // prefetch made stale by a write in between is only a wasted hint.
    constexpr std::uint64_t kAhead = 16;
    constexpr std::uint64_t kNear = 4;
    std::array<Lpn, kAhead> ring{};
    for (std::uint64_t i = 0; i < std::min(overwrites, kAhead); ++i) {
        ring[i] = rng.below(span);
        mapping.prefetchLookup(ring[i]);
    }
    const int tries = cfg.totalChips() * cfg.geometry.planes;
    for (std::uint64_t i = 0; i < overwrites; ++i) {
        Lpn &slot = ring[i % kAhead];
        const Lpn lpn = slot;
        if (i + kAhead < overwrites) {
            slot = rng.below(span);
            mapping.prefetchLookup(slot);
        }
        if (i + kNear < overwrites)
            mapping.prefetchOldLocation(ring[(i + kNear) % kAhead]);
        bool placed = false;
        PlaneCursor at = writePointer;
        for (int t = 0; t < tries && !placed; ++t, nextPlane(at)) {
            BlockId blk;
            int page;
            if (!blocks.allocate(at.chip, at.plane, blk, page))
                continue;
            writePointer = at;
            nextPlane(writePointer);
            mapping.update(lpn, mapping.encode(at.chip, blk, page));
            placed = true;
            if (blocks.freeBlocks(at.chip, at.plane) <= cfg.gcLowWatermark)
                functionalGc(at.chip, at.plane);
        }
        AERO_CHECK(placed, "warmup could not place a write");
    }
}

void
Ftl::functionalGc(int chip, int plane)
{
    // Inline, timing-free GC used only during warmup. A victim's live
    // pages move as runs: one allocation and mapping update per
    // destination block they land in. wear() erases the victim later.
    while (blocks.freeBlocks(chip, plane) <= cfg.gcLowWatermark) {
        const BlockId victim = blocks.pickVictim(chip, plane, mapping);
        if (victim == kInvalidBlock)
            return;
        if (mapping.validPages(chip, victim) >=
            cfg.geometry.pagesPerBlock) {
            return;  // nothing reclaimable yet: all pages still live
        }
        const int live = mapping.livePages(chip, victim, gcLive);
        for (int k = 0; k < live;) {
            // Relocate within the plane (other blocks have room: the
            // victim frees at least as many pages as it consumes).
            BlockId dst;
            int dpage;
            const int run = blocks.allocateRun(chip, plane, live - k, dst,
                                               dpage, true);
            AERO_CHECK(run > 0 && dst != victim,
                       "warmup GC ran out of destination space");
            mapping.relocate(std::span(gcLive).subspan(k, run),
                             mapping.encode(chip, dst, dpage));
            k += run;
        }
        mapping.onBlockErased(chip, victim);
        blocks.onBlockErased(chip, victim);
        eraseLog.push_back(
            ErasedBlock{static_cast<std::uint32_t>(chip), victim});
    }
}

void
Ftl::submit(const TraceRecord &rec)
{
    const InflightRequest req{rec.op, eq.now(), rec.pages, rec.tenant};
    std::uint64_t id;
    if (freeSlots.empty()) {
        id = inflight.size();
        inflight.push_back(req);
    } else {
        id = freeSlots.back();
        freeSlots.pop_back();
        inflight[id] = req;
    }
    liveRequests += 1;
    // Pages wrap at the end of the logical space.
    const Lpn logical = mapping.logicalPages();
    const Lpn start =
        rec.startPage < logical ? rec.startPage : rec.startPage % logical;
    if (rec.op == IoOp::Read) {
        // Reads are side-effect free at admission, so a multi-page
        // request queues as a burst: one dispatch pass per touched chip
        // instead of one per page. Writes keep per-page dispatch — a
        // write can trip the GC watermark and enqueue an urgent erase,
        // which must see the queues exactly as sequential admission
        // would leave them.
        Lpn lpn = start;
        for (std::uint32_t i = 0; i < rec.pages; ++i) {
            submitReadPage(lpn, id, rec.tenant);
            if (++lpn == logical)
                lpn = 0;
        }
        flushReadBurst();
        return;
    }
    Lpn lpn = start;
    for (std::uint32_t i = 0; i < rec.pages; ++i) {
        if (!submitWritePage(lpn, id, rec.tenant))
            stalledWrites.push_back(StalledWrite{lpn, id, rec.tenant});
        if (++lpn == logical)
            lpn = 0;
    }
}

void
Ftl::submitReadPage(Lpn lpn, std::uint64_t request_id, TenantId tenant)
{
    const Ppn ppn = mapping.lookup(lpn);
    if (ppn == kInvalidPpn) {
        // Never-written page: the controller answers from the mapping
        // table without touching flash.
        stats.unmappedReads += 1;
        hostPageIds.push_back(request_id);
        eq.insert(eq.now() + cfg.hostOverhead, hostPageDone);
        return;
    }
    const auto parts = mapping.decode(ppn);
    PageOp op;
    op.kind = PageOp::Kind::UserRead;
    op.lpn = lpn;
    op.ppn = ppn;
    op.requestId = request_id;
    op.tenant = tenant;
    if (!burstTouched[parts.chip]) {
        burstTouched[parts.chip] = 1;
        burstChips.push_back(parts.chip);
    }
    agents[parts.chip]->enqueueDeferred(op);
}

void
Ftl::flushReadBurst()
{
    // First-touch order keeps channel reservations identical to the
    // page-at-a-time admission this replaced.
    for (const int chip : burstChips) {
        burstTouched[chip] = 0;
        agents[chip]->flush();
    }
    burstChips.clear();
}

bool
Ftl::submitWritePage(Lpn lpn, std::uint64_t request_id, TenantId tenant)
{
    const int tries = cfg.totalChips() * cfg.geometry.planes;
    PlaneCursor at = writePointer;
    for (int t = 0; t < tries; ++t, nextPlane(at)) {
        BlockId blk;
        int page;
        if (!blocks.allocate(at.chip, at.plane, blk, page))
            continue;
        writePointer = at;
        nextPlane(writePointer);
        const Ppn ppn = mapping.encode(at.chip, blk, page);
        mapping.update(lpn, ppn);
        chips[at.chip].programPage(blk);  // functional effect at issue
        PageOp op;
        op.kind = PageOp::Kind::UserWrite;
        op.lpn = lpn;
        op.ppn = ppn;
        op.requestId = request_id;
        op.tenant = tenant;
        op.tprog = programTicks(at.chip, blk);
        agents[at.chip]->enqueue(op);
        maybeStartGc(at.chip, at.plane);
        return true;
    }
    return false;
}

void
Ftl::completeRequestPage(std::uint64_t request_id)
{
    AERO_CHECK(request_id < inflight.size(),
               "completion for unknown request");
    InflightRequest &req = inflight[request_id];
    AERO_CHECK(req.remaining > 0, "request page over-completion");
    if (--req.remaining == 0) {
        const Tick latency = eq.now() - req.arrival + cfg.hostOverhead;
        TenantLatency *tenant = nullptr;
        if (stats.tenantTrackingEnabled()) {
            AERO_CHECK(req.tenant < stats.tenants.size(),
                       "request tenant ", req.tenant,
                       " outside the tracked range");
            tenant = &stats.tenants[req.tenant];
        }
        if (req.op == IoOp::Read) {
            stats.reads += 1;
            stats.readLatency.add(latency);
            if (tenant) {
                tenant->reads += 1;
                tenant->readLatency.add(latency);
            }
        } else {
            stats.writes += 1;
            stats.writeLatency.add(latency);
            if (tenant) {
                tenant->writes += 1;
                tenant->writeLatency.add(latency);
            }
        }
        freeSlots.push_back(request_id);
        liveRequests -= 1;
    }
}

void
Ftl::onHostPageDone()
{
    AERO_CHECK(!hostPageIds.empty(),
               "host-page timer fired with no page queued");
    const std::uint64_t id = hostPageIds.front();
    hostPageIds.pop_front();
    completeRequestPage(id);
}

void
Ftl::nextPlane(PlaneCursor &c) const
{
    if (++c.plane < cfg.geometry.planes)
        return;
    c.plane = 0;
    if (++c.chip == cfg.totalChips())
        c.chip = 0;
}

std::uint32_t
Ftl::programTicks(int chip, BlockId blk) const
{
    const Tick t = schemes[chip]->programLatency(blk);
    AERO_CHECK(t <= std::numeric_limits<std::uint32_t>::max(),
               "program latency of ", t, " ticks does not fit a PageOp");
    return static_cast<std::uint32_t>(t);
}

void
Ftl::onPageOpDone(const PageOp &op)
{
    switch (op.kind) {
      case PageOp::Kind::UserRead:
      case PageOp::Kind::UserWrite:
        completeRequestPage(op.requestId);
        break;
      case PageOp::Kind::GcRead: {
        // The victim page may have been overwritten while the read was
        // queued; only relocate pages that are still live.
        const Lpn lpn = mapping.reverseLookup(op.ppn);
        if (lpn != kInvalidLpn)
            issueGcWrite(op.job, lpn);
        else
            gcStep(op.job);
        break;
      }
      case PageOp::Kind::GcWrite:
        if (op.job->wearLevel)
            stats.wlMigratedPages += 1;
        else
            stats.gcMigratedPages += 1;
        op.job->migrated += 1;
        gcStep(op.job);
        break;
    }
}

void
Ftl::issueGcWrite(GcJob *job, Lpn lpn)
{
    // Relocate within the victim's plane when possible, falling back to
    // any plane with space (cross-plane copyback via the controller).
    const int tries = cfg.totalChips() * cfg.geometry.planes;
    PlaneCursor at{job->chip, job->plane};
    for (int t = 0; t < tries; ++t, nextPlane(at)) {
        BlockId blk;
        int page;
        if (!blocks.allocate(at.chip, at.plane, blk, page, true))
            continue;
        const Ppn ppn = mapping.encode(at.chip, blk, page);
        mapping.update(lpn, ppn);
        chips[at.chip].programPage(blk);
        PageOp op;
        op.kind = PageOp::Kind::GcWrite;
        op.lpn = lpn;
        op.ppn = ppn;
        op.job = job;
        op.tprog = programTicks(at.chip, blk);
        agents[at.chip]->enqueue(op);
        return;
    }
    AERO_PANIC("GC found no destination page; drive wedged");
}

void
Ftl::maybeStartGc(int chip, int plane)
{
    if (blocks.freeBlocks(chip, plane) > cfg.gcLowWatermark)
        return;
    if (gcJobs[planeKey(chip, plane)])
        return;  // a job is already running on this plane
    launchJob(chip, plane, blocks.pickVictim(chip, plane, mapping), false);
}

void
Ftl::maybeStartWearLevel(int chip, int plane)
{
    if (cfg.wearLevel != WearLevel::Static)
        return;
    if (gcJobs[planeKey(chip, plane)])
        return;  // the plane is busy (GC restarted first)
    launchJob(chip, plane,
              blocks.pickColdVictim(chip, plane, cfg.wlEraseDelta), true);
}

void
Ftl::launchJob(int chip, int plane, BlockId victim, bool wear_level)
{
    if (victim == kInvalidBlock)
        return;
    auto &slot = gcJobs[planeKey(chip, plane)];
    slot = std::make_unique<GcJob>();
    slot->chip = chip;
    slot->plane = plane;
    slot->victim = victim;
    slot->wearLevel = wear_level;
    activeGcJobs += 1;
    if (wear_level)
        stats.wlInvocations += 1;
    else
        stats.gcInvocations += 1;
    gcStep(slot.get());
}

void
Ftl::gcStep(GcJob *job)
{
    // Advance the scan cursor to the next still-valid page and read it.
    const int pages = cfg.geometry.pagesPerBlock;
    while (job->nextPage < pages) {
        const Ppn ppn =
            mapping.encode(job->chip, job->victim, job->nextPage);
        job->nextPage += 1;
        const Lpn lpn = mapping.reverseLookup(ppn);
        if (lpn != kInvalidLpn) {
            // Its l2p entry is the one the copy's update() rewrites.
            mapping.prefetchLookup(lpn);
            PageOp op;
            op.kind = PageOp::Kind::GcRead;
            op.ppn = ppn;
            op.job = job;
            agents[job->chip]->enqueue(op);
            return;
        }
    }
    if (!job->eraseIssued) {
        job->eraseIssued = true;
        agents[job->chip]->enqueueErase(job->victim, job);
    }
}

void
Ftl::onEraseDone(int chip, BlockId block, const EraseOutcome &outcome,
                 GcJob *job)
{
    (void)outcome;
    mapping.onBlockErased(chip, block);
    blocks.onBlockErased(chip, block);
    if (job) {
        AERO_CHECK(job->victim == block, "GC job / erase mismatch");
        const bool was_wear_level = job->wearLevel;
        auto &slot = gcJobs[planeKey(chip, job->plane)];
        AERO_CHECK(slot.get() == job, "GC job slot mismatch");
        slot.reset();
        activeGcJobs -= 1;
        retryStalledWrites();
        const int plane = blocks.planeOf(block);
        maybeStartGc(chip, plane);
        // A completed GC cycle may leave the plane's wear spread over the
        // policy threshold; WL never chains off its own erase.
        if (!was_wear_level)
            maybeStartWearLevel(chip, plane);
    }
}

bool
Ftl::eraseUrgent(int chip, BlockId block)
{
    const int plane = blocks.planeOf(block);
    return blocks.freeBlocks(chip, plane) == 0 ||
           !stalledWrites.empty();
}

void
Ftl::retryStalledWrites()
{
    if (stalledWrites.empty())
        return;
    // One pass in FIFO order; a write that stalls again queues behind
    // those that stalled before it in this pass, and they are all
    // eraseUrgent() sees meanwhile.
    std::swap(stalledRetry, stalledWrites);
    while (!stalledRetry.empty()) {
        const StalledWrite w = stalledRetry.front();
        stalledRetry.pop_front();
        if (!submitWritePage(w.lpn, w.requestId, w.tenant))
            stalledWrites.push_back(w);
    }
}

std::size_t
Ftl::planeKey(int chip, int plane) const
{
    return static_cast<std::size_t>(chip) * cfg.geometry.planes + plane;
}

} // namespace aero
