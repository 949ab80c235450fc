#include "core/aero_scheme.hh"

#include <algorithm>

#include "common/logging.hh"
#include "erase/baseline_ispe.hh"
#include "erase/dpes.hh"
#include "erase/i_ispe.hh"
#include "nand/erase_model.hh"

namespace aero
{

/**
 * One in-flight AERO erase operation. Each nextSegment() call performs one
 * erase loop (or recovery/penalty step) worth of chip occupancy.
 */
class AeroSession : public EraseSession
{
  public:
    AeroSession(AeroScheme &scheme_, BlockId id)
        : scheme(scheme_), nand(scheme_.chip()), blk(id)
    {
    }

    bool
    nextSegment(EraseSegment &seg) override
    {
        switch (phase) {
          case Phase::Init:
            return doInit(seg);
          case Phase::Loop:
            return doLoop(seg);
          case Phase::Recover:
            return doRecover(seg);
          case Phase::Extra:
            return doExtra(seg);
          case Phase::Done:
            return false;
        }
        return false;
    }

  private:
    enum class Phase { Init, Loop, Recover, Extra, Done };

    const ChipParams &params() const { return nand.params(); }

    /** Charge one pulse+verify to the segment and the outcome. */
    VerifyResult
    pulseAndVerify(EraseSegment &seg, int lvl, int slots)
    {
        const auto pulse = nand.erasePulse(blk, lvl, slots);
        const auto verify = nand.verifyRead(blk);
        seg.duration = pulse.duration + verify.duration;
        seg.last = false;
        result.latency += seg.duration;
        result.loops += 1;
        appliedSlots += slots;
        return verify;
    }

    void
    setupNext(const FelpPrediction &pred)
    {
        pendingSlots = pred.slots;
        intendedLeftover = pred.allowedLeftover;
        intendedComplete = pred.allowedLeftover <= 0.0;
        if (pred.reduced)
            anyReduction = true;
    }

    double
    acceptBound() const
    {
        // Accept a deliberately incomplete erase if the measured F is
        // consistent with the intended leftover (half-slot tolerance plus
        // readout noise headroom).
        return expectedFailBits(params(), intendedLeftover + 0.6);
    }

    bool
    doInit(EraseSegment &seg)
    {
        nand.beginErase(blk);
        blockPec = nand.block(blk).pec();
        if (scheme.opts().shallowErasure && scheme.sefMap.get(blk)) {
            // Shallow probe: short pulse at V_ERASE(1), then VR(0).
            result.usedShallow = true;
            scheme.counters.shallowProbes += 1;
            anyReduction = true;
            const auto vr =
                pulseAndVerify(seg, 1, scheme.shallowSlots());
            if (vr.pass)
                return complete(seg);
            const auto pred =
                scheme.predictor.predict(1, vr.failBits, blockPec);
            // SEF maintenance: if probe + remainder cannot beat the
            // default tEP, skip the probe (and its VR) next time.
            if (scheme.shallowSlots() + pred.slots >=
                params().slotsPerLoop) {
                scheme.sefMap.set(blk, false);
            }
            if (pred.slots == 0)
                return acceptIncomplete(seg, pred.allowedLeftover);
            setupNext(pred);
            phase = Phase::Loop;
            return true;
        }
        // No shallow probe: loop 1 runs the full default pulse.
        pendingSlots = params().slotsPerLoop;
        intendedComplete = true;
        intendedLeftover = 0.0;
        phase = Phase::Loop;
        return doLoop(seg);
    }

    bool
    doLoop(EraseSegment &seg)
    {
        const auto vr = pulseAndVerify(seg, level, pendingSlots);
        if (vr.pass)
            return complete(seg);
        if (pendingSlots < params().slotsPerLoop && intendedComplete) {
            // We predicted this pulse would finish the block and it did
            // not: a genuine FELP misprediction (paper section 6).
            result.misprediction = true;
            scheme.counters.mispredictions += 1;
            slotsThisLevel = pendingSlots;
            phase = Phase::Recover;
            return true;
        }
        if (!intendedComplete && vr.failBits <= acceptBound())
            return acceptIncomplete(seg, intendedLeftover);
        // Ordinary erase failure: escalate to the next loop, with FELP
        // sizing its pulse.
        result.eraseFailures += 1;
        const auto pred =
            scheme.predictor.predict(level + 1, vr.failBits, blockPec);
        if (pred.slots == 0) {
            scheme.counters.skippedLoops += 1;
            return acceptIncomplete(seg, pred.allowedLeftover);
        }
        if (appliedSlots >= params().maxLoops * params().slotsPerLoop)
            return finishOp(seg);  // give up: defective outlier block
        level = std::min(level + 1, params().maxLevel);
        setupNext(pred);
        return true;
    }

    bool
    doRecover(EraseSegment &seg)
    {
        // Misprediction handling: extra short EP steps at the same
        // V_ERASE, raising it once the accumulated time at this level
        // exceeds the default tEP.
        const auto vr = pulseAndVerify(seg, level, 1);
        slotsThisLevel += 1;
        if (vr.pass)
            return complete(seg);
        if (appliedSlots >= params().maxLoops * params().slotsPerLoop)
            return finishOp(seg);
        if (slotsThisLevel >= params().slotsPerLoop) {
            level = std::min(level + 1, params().maxLevel);
            slotsThisLevel = 0;
        }
        return true;
    }

    bool
    doExtra(EraseSegment &seg)
    {
        // Injected misprediction penalty (Fig. 16): one extra 0.5-ms EP
        // step plus its verify-read.
        pulseAndVerify(seg, level, 1);
        return complete(seg, true);
    }

    bool
    acceptIncomplete(EraseSegment &seg, double leftover)
    {
        (void)leftover;
        result.acceptedIncomplete = true;
        scheme.counters.incompleteAccepts += 1;
        return complete(seg);
    }

    bool
    complete(EraseSegment &seg, bool no_inject = false)
    {
        const double rate = scheme.opts().mispredictionRate;
        if (!no_inject && anyReduction && rate > 0.0 &&
            scheme.schemeRng.chance(rate)) {
            result.misprediction = true;
            scheme.counters.injectedMispredictions += 1;
            phase = Phase::Extra;
            return true;
        }
        return finishOp(seg);
    }

    bool
    finishOp(EraseSegment &seg)
    {
        commitErase(nand, blk);
        scheme.counters.erases += 1;
        seg.last = true;
        phase = Phase::Done;
        return true;
    }

    AeroScheme &scheme;
    NandChip &nand;
    BlockId blk;
    Phase phase = Phase::Init;
    int level = 1;
    int pendingSlots = 7;
    int slotsThisLevel = 0;
    int appliedSlots = 0;
    double intendedLeftover = 0.0;
    bool intendedComplete = true;
    bool anyReduction = false;
    double blockPec = 0.0;
};

AeroScheme::AeroScheme(NandChip &chip, const SchemeOptions &opts,
                       bool use_ecc_margin, const Ept &ept)
    : EraseScheme(chip, opts), useEccMargin(use_ecc_margin),
      predictor(chip.params(), chip.wearModel(), ept,
                FelpConfig{use_ecc_margin, opts.marginPad,
                           opts.rberRequirement}),
      sefMap(static_cast<std::size_t>(chip.numBlocks())),
      schemeRng(opts.seed)
{
}

std::unique_ptr<EraseSession>
AeroScheme::begin(BlockId id)
{
    AERO_CHECK(id < sefMap.size(), "block id out of range");
    return std::make_unique<AeroSession>(*this, id);
}

std::unique_ptr<EraseScheme>
makeEraseScheme(SchemeKind kind, NandChip &chip, const SchemeOptions &opts)
{
    switch (kind) {
      case SchemeKind::Baseline:
        return std::make_unique<BaselineIspe>(chip, opts);
      case SchemeKind::IIspe:
        return std::make_unique<IntelligentIspe>(chip, opts);
      case SchemeKind::Dpes:
        return std::make_unique<Dpes>(chip, opts);
      case SchemeKind::AeroCons:
      case SchemeKind::Aero:
        return std::make_unique<AeroScheme>(chip, opts,
                                            kind == SchemeKind::Aero,
                                            Ept::canonical(chip.params()));
    }
    AERO_PANIC("unknown scheme kind ", static_cast<int>(kind));
}

} // namespace aero
