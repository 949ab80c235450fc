#include "ssd/chip_agent.hh"

#include <algorithm>

#include "common/logging.hh"

namespace aero
{

ChipAgent::ChipAgent(int chip_idx, NandChip &chip, EraseScheme &scheme_,
                     EventQueue &eq_, const SsdConfig &cfg_,
                     Channel &channel_, FtlCallbacks &ftl_,
                     SsdMetrics &metrics_)
    : chipIdx(chip_idx), nand(chip), scheme(scheme_), eq(eq_), cfg(cfg_),
      channel(channel_), ftl(ftl_), metrics(metrics_)
{
    opDone.init<ChipAgent, &ChipAgent::onChipOpComplete>(this);
    senseDone.init<ChipAgent, &ChipAgent::onDieOpComplete>(this);
    segmentDone.init<ChipAgent, &ChipAgent::finishEraseSegment>(this);
    quiesced.init<ChipAgent, &ChipAgent::onSuspendQuiesced>(this);
    busWait.agent = this;
}

bool
ChipAgent::idle() const
{
    return !busy && readQ.empty() && writeQ.empty() && gcQ.empty() &&
           eraseQ.empty() && !erase.has_value();
}

void
ChipAgent::push(const PageOp &op)
{
    switch (op.kind) {
      case PageOp::Kind::UserRead:
        readQ.push_back(op);
        // Erase suspension: preempt an in-flight erase segment so the
        // read does not wait several milliseconds.
        if (busy && inEraseSegment &&
            cfg.suspension == SuspensionMode::MidSegment &&
            erase && !erase->paused &&
            erase->suspensionsThisOp < kMaxSuspensionsPerOp) {
            // Invalidate the scheduled segment completion.
            const bool cancelled = eq.cancel(segmentDone);
            AERO_CHECK(cancelled,
                       "suspension found no pending segment event");
            erase->paused = true;
            erase->pausedRemaining = opEnd - eq.now();
            erase->suspensionsThisOp += 1;
            metrics.eraseSuspensions += 1;
            inEraseSegment = false;
            // The chip stays busy while the erase voltage quiesces.
            opEnd = eq.now() + cfg.suspendEntryLatency;
            eq.arm(opEnd, quiesced);
        }
        break;
      case PageOp::Kind::UserWrite:
        writeQ.push_back(op);
        break;
      case PageOp::Kind::GcRead:
      case PageOp::Kind::GcWrite:
        gcQ.push_back(op);
        break;
    }
}

void
ChipAgent::enqueue(const PageOp &op)
{
    if (idle()) {
        // Nothing queued ahead of it: dispatch() would pick this op.
        curOp = op;
        startOp();
        return;
    }
    push(op);
    dispatch();
}

void
ChipAgent::enqueueDeferred(const PageOp &op)
{
    push(op);
}

void
ChipAgent::enqueueErase(BlockId block, GcJob *job)
{
    eraseQ.push_back({block, job});
    dispatch();
}

void
ChipAgent::dispatch()
{
    if (busy)
        return;
    // 1. User reads first: the latency-critical path.
    if (!readQ.empty()) {
        curOp = readQ.front();
        readQ.pop_front();
        startRead();
        return;
    }
    // 2. A suspended erase segment owns the cell array mid-pulse; it must
    //    complete before any other operation can use the chip.
    if (erase && erase->paused) {
        resumeErase();
        return;
    }
    // 3. Out-of-space erase beats writes: the writes need its free block.
    const bool have_erase_work = erase.has_value() || !eraseQ.empty();
    if (have_erase_work) {
        const BlockId blk = erase ? erase->block : eraseQ.front().first;
        if (ftl.eraseUrgent(chipIdx, blk)) {
            startEraseWork();
            return;
        }
    }
    // 4. User writes.
    if (!writeQ.empty()) {
        curOp = writeQ.front();
        writeQ.pop_front();
        startWrite();
        return;
    }
    // 5. GC page migrations.
    if (!gcQ.empty()) {
        curOp = gcQ.front();
        gcQ.pop_front();
        startOp();
        return;
    }
    // 6. Background erase work.
    if (have_erase_work) {
        startEraseWork();
        return;
    }
}

BusClass
ChipAgent::busClassOf(const PageOp &op) const
{
    switch (op.kind) {
      case PageOp::Kind::UserRead: return BusClass::HostRead;
      case PageOp::Kind::UserWrite: return BusClass::HostWrite;
      case PageOp::Kind::GcRead:
      case PageOp::Kind::GcWrite: return BusClass::GcCopy;
    }
    return BusClass::HostRead;
}

void
ChipAgent::startOp()
{
    if (curOp.kind == PageOp::Kind::UserRead ||
        curOp.kind == PageOp::Kind::GcRead)
        startRead();
    else
        startWrite();
}

void
ChipAgent::startRead()
{
    busy = true;
    inEraseSegment = false;
    if (queued()) {
        // Two-phase: run the on-die sense to completion, then compete
        // for the channel; the transfer is scheduled at grant time.
        phase = Phase::Sense;
        opEnd = eq.now() + nand.params().tRead;
        eq.arm(opEnd, senseDone);
        return;
    }
    const Tick sense_done = eq.now() + nand.params().tRead;
    const Tick xfer_start = std::max(sense_done, channel.busyUntil);
    const Tick end = xfer_start + cfg.channelXferPerPage;
    channel.busyUntil = end;
    if (static_cast<std::size_t>(channel.index()) <
        metrics.channelBusyTicks.size())
        metrics.channelBusyTicks[channel.index()] += cfg.channelXferPerPage;
    opEnd = end;
    eq.arm(end, opDone);
}

void
ChipAgent::startWrite()
{
    busy = true;
    inEraseSegment = false;
    if (queued()) {
        // The data-in transfer needs the bus first; the on-die program
        // starts once the transfer lands.
        phase = Phase::AwaitBus;
        channel.request(*this, busClassOf(curOp), curOp.tenant);
        return;
    }
    const Tick xfer_start = std::max(eq.now(), channel.busyUntil);
    const Tick xfer_end = xfer_start + cfg.channelXferPerPage;
    channel.busyUntil = xfer_end;
    if (static_cast<std::size_t>(channel.index()) <
        metrics.channelBusyTicks.size())
        metrics.channelBusyTicks[channel.index()] += cfg.channelXferPerPage;
    const Tick tprog = curOp.tprog ? curOp.tprog : nand.params().tProg;
    const Tick end = xfer_end + tprog;
    opEnd = end;
    eq.arm(end, opDone);
}

void
ChipAgent::onDieOpComplete()
{
    AERO_CHECK(phase == Phase::Sense, "die op completed outside a sense");
    phase = Phase::AwaitBus;
    channel.request(*this, busClassOf(curOp), curOp.tenant);
}

Tick
ChipAgent::channelGranted()
{
    const Tick now = eq.now();
    if (phase == Phase::EraseAwaitBus) {
        // The bus carries only the command; the pulse runs on-die.
        const Tick cmd_end = now + cfg.channelCmdOverhead;
        const bool more = erase->session->nextSegment(erase->seg);
        AERO_CHECK(more, "erase session exhausted unexpectedly");
        phase = Phase::None;
        inEraseSegment = true;
        opEnd = cmd_end + erase->seg.duration;
        metrics.eraseBusyTime += erase->seg.duration;
        eq.arm(opEnd, segmentDone);
        return cmd_end;
    }
    AERO_CHECK(phase == Phase::AwaitBus, "channel grant without a waiter");
    phase = Phase::Xfer;
    const Tick xfer_end = now + cfg.channelXferPerPage;
    if (curOp.kind == PageOp::Kind::UserRead ||
        curOp.kind == PageOp::Kind::GcRead) {
        // Sense already ran; the op completes when the data is out.
        opEnd = xfer_end;
    } else {
        const Tick tprog = curOp.tprog ? curOp.tprog : nand.params().tProg;
        opEnd = xfer_end + tprog;
    }
    eq.arm(opEnd, opDone);
    return xfer_end;
}

void
ChipAgent::onChipOpComplete()
{
    busy = false;
    phase = Phase::None;
    const PageOp op = curOp;  // the FTL may start this chip's next op
    ftl.onPageOpDone(op);
    dispatch();
}

void
ChipAgent::onSuspendQuiesced()
{
    busy = false;
    dispatch();
}

void
ChipAgent::startEraseWork()
{
    if (!erase) {
        AERO_CHECK(!eraseQ.empty(), "no erase work to start");
        auto [block, job] = eraseQ.front();
        eraseQ.pop_front();
        ActiveErase ae;
        ae.session = scheme.begin(block);
        ae.block = block;
        ae.job = job;
        erase.emplace(std::move(ae));
    }
    if (queued()) {
        // Every segment's command issue competes for the channel with
        // host and GC transfers; the segment itself runs at grant time.
        busy = true;
        inEraseSegment = false;
        phase = Phase::EraseAwaitBus;
        channel.request(*this, BusClass::EraseCmd);
        return;
    }
    // Perform the next loop functionally; charge its duration.
    const bool more = erase->session->nextSegment(erase->seg);
    AERO_CHECK(more, "erase session exhausted unexpectedly");
    busy = true;
    inEraseSegment = true;
    opEnd = eq.now() + erase->seg.duration;
    metrics.eraseBusyTime += erase->seg.duration;
    eq.arm(opEnd, segmentDone);
}

void
ChipAgent::resumeErase()
{
    AERO_CHECK(erase && erase->paused, "resume without paused erase");
    busy = true;
    inEraseSegment = true;
    erase->paused = false;
    const Tick dur = cfg.suspendResumeOverhead + erase->pausedRemaining;
    opEnd = eq.now() + dur;
    metrics.eraseBusyTime += cfg.suspendResumeOverhead;
    eq.arm(opEnd, segmentDone);
}

void
ChipAgent::finishEraseSegment()
{
    busy = false;
    inEraseSegment = false;
    if (erase->seg.last) {
        const EraseOutcome outcome = erase->session->outcome();
        metrics.erases += 1;
        metrics.eraseLoops += outcome.loops;
        const BlockId block = erase->block;
        GcJob *job = erase->job;
        erase.reset();
        ftl.onEraseDone(chipIdx, block, outcome, job);
        dispatch();
        return;
    }
    // The erase operation is atomic at the chip interface: continue with
    // the next loop immediately. Queued reads get in only via suspension.
    startEraseWork();
}

} // namespace aero
