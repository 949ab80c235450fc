/**
 * @file
 * Fail-bit-count-based Erase Latency Prediction (FELP, paper section 4).
 *
 * Given the fail-bit count of the previous verify-read, FELP predicts the
 * minimum pulse time of the next erase loop from the EPT. With the
 * ECC-margin optimization enabled it additionally computes how many slots
 * of erasure may be left *undone*: the expected extra raw bit errors of
 * the leftover must fit inside the block's current ECC-capability margin
 * (requirement - predicted base RBER - safety pad).
 */

#ifndef AERO_CORE_FELP_HH
#define AERO_CORE_FELP_HH

#include <array>
#include <cstddef>
#include <limits>

#include "core/ept.hh"
#include "nand/wear_model.hh"

namespace aero
{

struct FelpConfig
{
    bool useEccMargin = true;   //!< false = AERO-CONS behaviour
    double marginPad = 18.0;    //!< bits held back from the margin
    int rberRequirement = 63;   //!< bits per 1 KiB (Fig. 17 sweeps this)
};

struct FelpPrediction
{
    int slots = 7;                 //!< pulse length for the next loop
    double allowedLeftover = 0.0;  //!< slots of incompleteness accepted
    bool reduced = false;          //!< slots < default
    int range = 8;                 //!< fail-bit range index consulted
};

class Felp
{
  public:
    Felp(const ChipParams &params, const WearModel &wear, Ept ept,
         const FelpConfig &cfg);

    /**
     * Predict the next loop's pulse time.
     *
     * @param next_loop  1-based index of the loop being predicted (the
     *                   remainder pulse of shallow erasure is loop 1)
     * @param fail_bits  F from the previous verify-read
     * @param block_pec  the block's nominal PEC (margin sizing)
     */
    FelpPrediction predict(int next_loop, double fail_bits,
                           double block_pec) const;

    /**
     * Slots of leftover whose residual RBER still fits the block's margin
     * (0 when the margin optimization is disabled or exhausted).
     * Memoized per block PEC in a small table indexed by the PEC's
     * integer part: a drive's blocks sit within a few PECs of each other,
     * so nearly every call after the first few is a hit. Hits return the
     * stored result of the same computation, so values are bit-identical.
     */
    double allowedLeftoverSlots(double block_pec) const;

    const Ept &ept() const { return table; }
    const FelpConfig &config() const { return cfg; }

  private:
    /** The un-memoized margin bisection behind allowedLeftoverSlots. */
    double computeLeftoverSlots(double block_pec) const;

    const ChipParams &chip;
    const WearModel &wear;
    Ept table;
    FelpConfig cfg;
    /** One memoized allowedLeftoverSlots result (NaN PEC: empty). */
    struct MemoEntry
    {
        double pec = std::numeric_limits<double>::quiet_NaN();
        double slots = 0.0;
    };
    static constexpr std::size_t kMemoSlots = 16;

    /** Per instance, not shared: a Felp lives in one chip's scheme,
     *  and one drive runs on one thread. */
    mutable std::array<MemoEntry, kMemoSlots> memo{};
};

} // namespace aero

#endif // AERO_CORE_FELP_HH
