/**
 * @file
 * Erase-scheme abstraction.
 *
 * A scheme turns "erase this block" into a sequence of chip micro-ops.
 * Because the SSD simulator needs to charge chip-occupancy time loop by
 * loop (erase suspension, reads slipping in at loop boundaries), schemes
 * expose erases as *sessions*: each nextSegment() call performs one erase
 * loop (EP + VR) functionally and reports its duration. Running a session
 * to completion without timing (characterization studies) is a one-liner
 * via runEraseToCompletion().
 *
 * Scheme instances attach to one chip and may keep per-block FTL-side
 * state (i-ISPE's N_ISPE memory, AERO's SEF bitmap).
 */

#ifndef AERO_ERASE_SCHEME_HH
#define AERO_ERASE_SCHEME_HH

#include <memory>

#include "common/names.hh"
#include "common/types.hh"
#include "nand/nand_chip.hh"

namespace aero
{

/**
 * The five erase schemes the paper compares (section 7.1), in its
 * comparison order. makeEraseScheme() (core/aero_scheme.hh) builds one.
 */
enum class SchemeKind
{
    Baseline,   //!< conventional ISPE, fixed tEP
    IIspe,      //!< intelligent ISPE: skip to the remembered final loop
    Dpes,       //!< dynamic program/erase scaling: lower V_ERASE
    AeroCons,   //!< AERO without the ECC-capability-margin optimization
    Aero,       //!< full AERO
};

inline NameTable<SchemeKind>
nameTable(SchemeKind)
{
    static constexpr NamedValue<SchemeKind> rows[] = {
        {"Baseline", SchemeKind::Baseline},
        {"i-ISPE", SchemeKind::IIspe},
        {"DPES", SchemeKind::Dpes},
        {"AERO-CONS", SchemeKind::AeroCons},
        {"AERO", SchemeKind::Aero},
    };
    return {"erase scheme", rows};
}

/** enumName() of a scheme. */
inline const char *
schemeKindName(SchemeKind k)
{
    return enumName(k);
}

/** Tunables shared by all schemes (most only matter to AERO). */
struct SchemeOptions
{
    /** Injected FELP misprediction rate (Fig. 16). */
    double mispredictionRate = 0.0;
    /** RBER requirement in bits per 1 KiB (Fig. 17; paper default 63). */
    int rberRequirement = 63;
    /** Enable AERO's shallow erasure of the first loop. */
    bool shallowErasure = true;
    /** Safety pad subtracted from the ECC margin before spending it. */
    double marginPad = 18.0;
    /** RNG seed for scheme-side randomness (misprediction injection). */
    std::uint64_t seed = 0xae50;
};

/** What one erase operation did, visible to the FTL. */
struct EraseOutcome
{
    Tick latency = 0;          //!< total tBERS (all EP + VR steps)
    int loops = 0;             //!< EP steps incl. shallow/remainder/extras
    int eraseFailures = 0;     //!< VR steps that failed (ISPE retries)
    bool usedShallow = false;
    bool misprediction = false;
    bool acceptedIncomplete = false;  //!< AERO spent ECC margin
    bool complete = false;     //!< physically complete erasure
    double leftoverSlots = 0.0;
    double damage = 0.0;
    int slotsApplied = 0;
    int maxLevel = 0;
};

/** One erase loop's worth of chip occupancy. */
struct EraseSegment
{
    Tick duration = 0;
    bool last = false;         //!< erase operation completed at segment end
};

class EraseSession
{
  public:
    virtual ~EraseSession() = default;

    /**
     * Perform the next erase loop functionally and describe its timing.
     * @return false when the operation has already finished.
     */
    virtual bool nextSegment(EraseSegment &seg) = 0;

    /** Valid once nextSegment() has returned a segment with last=true. */
    const EraseOutcome &outcome() const { return result; }

  protected:
    /** Commit the erase on the chip and copy what it did into result. */
    void commitErase(NandChip &nand, BlockId blk);

    EraseOutcome result;
};

class EraseScheme
{
  public:
    EraseScheme(NandChip &chip, const SchemeOptions &opts)
        : nand(chip), options(opts)
    {
    }

    virtual ~EraseScheme() = default;

    virtual SchemeKind kind() const = 0;
    const char *name() const { return schemeKindName(kind()); }

    /** Start an erase operation on a block. */
    virtual std::unique_ptr<EraseSession> begin(BlockId id) = 0;

    /** Program latency for a page of this block (DPES overrides). */
    virtual Tick
    programLatency(BlockId id) const
    {
        (void)id;
        return nand.params().tProg;
    }

    /** Scheme-induced extra max RBER on the block (DPES overrides). */
    virtual double
    extraRber(BlockId id) const
    {
        (void)id;
        return 0.0;
    }

    NandChip &chip() { return nand; }
    const SchemeOptions &opts() const { return options; }

  protected:
    NandChip &nand;
    SchemeOptions options;
};

/** Run an erase session to completion, ignoring timing interleave. */
EraseOutcome runEraseToCompletion(EraseSession &session);

/** Convenience: begin + run to completion. */
EraseOutcome eraseNow(EraseScheme &scheme, BlockId id);

} // namespace aero

#endif // AERO_ERASE_SCHEME_HH
