/**
 * @file
 * AERO — Adaptive ERase Operation (paper sections 4 and 6).
 *
 * AERO keeps the ISPE voltage staircase but adjusts each loop's pulse
 * time: the first loop is probed with a 1-ms shallow pulse (when the SEF
 * bitmap says it is worthwhile) and completed by a remainder pulse sized
 * from F(0); every later loop's pulse time comes from FELP on F(i-1).
 * With the ECC-margin optimization (full AERO, vs AERO-CONS) the final
 * loop may be trimmed further or skipped entirely, deliberately leaving a
 * bounded amount of erasure undone.
 *
 * Mispredictions (never observed in the paper's characterization, but
 * injectable for the Fig. 16 sensitivity study) are handled exactly as the
 * paper describes: additional short EP steps at the same V_ERASE, raising
 * the level once the accumulated pulse time passes the default tEP.
 */

#ifndef AERO_CORE_AERO_SCHEME_HH
#define AERO_CORE_AERO_SCHEME_HH

#include "core/felp.hh"
#include "core/sef.hh"
#include "erase/scheme.hh"

namespace aero
{

/** Running counters exposed for experiments and tests. */
struct AeroStats
{
    std::uint64_t erases = 0;
    std::uint64_t shallowProbes = 0;
    std::uint64_t skippedLoops = 0;       //!< loops avoided entirely
    std::uint64_t incompleteAccepts = 0;  //!< margin-spending erases
    std::uint64_t mispredictions = 0;
    std::uint64_t injectedMispredictions = 0;
};

class AeroScheme : public EraseScheme
{
  public:
    /**
     * @param use_ecc_margin  false builds AERO-CONS
     * @param ept             the erase-timing parameter table (canonical
     *                        Table 1 or one built by EptBuilder)
     */
    AeroScheme(NandChip &chip, const SchemeOptions &opts,
               bool use_ecc_margin, const Ept &ept);

    SchemeKind
    kind() const override
    {
        return useEccMargin ? SchemeKind::Aero : SchemeKind::AeroCons;
    }

    std::unique_ptr<EraseSession> begin(BlockId id) override;

    const SefBitmap &sef() const { return sefMap; }
    const Felp &felp() const { return predictor; }
    const AeroStats &stats() const { return counters; }

    /** Shallow-pulse length in slots (tSE = 1 ms). */
    int shallowSlots() const { return 2; }

  private:
    friend class AeroSession;

    bool useEccMargin;
    Felp predictor;
    SefBitmap sefMap;
    Rng schemeRng;
    AeroStats counters;
};

/** Construct any of the five compared schemes. */
std::unique_ptr<EraseScheme> makeEraseScheme(SchemeKind kind, NandChip &chip,
                                             const SchemeOptions &opts);

} // namespace aero

#endif // AERO_CORE_AERO_SCHEME_HH
