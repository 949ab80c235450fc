/**
 * @file
 * Characterization experiments: the data behind the paper's Figs. 4 and
 * 7-11. Each function runs the corresponding study on a virtual chip farm
 * and returns the rows/series the paper plots; the bench binaries format
 * them. All experiments are deterministic for a given FarmConfig seed.
 */

#ifndef AERO_DEVCHAR_EXPERIMENTS_HH
#define AERO_DEVCHAR_EXPERIMENTS_HH

#include <array>
#include <map>
#include <vector>

#include "core/ept_builder.hh"
#include "devchar/farm.hh"
#include "exp/campaign.hh"

namespace aero
{

/** Fig. 4: distribution of minimum erase latency vs P/E cycles. */
struct Fig4Data
{
    struct PecCurve
    {
        double pec = 0.0;
        std::vector<double> mtBersMs;        //!< per-block mtBERS samples
        std::map<int, int> nIspeCounts;      //!< N_ISPE histogram
        double meanMtBersMs = 0.0;
        double stddevMtBersMs = 0.0;
        double fracWithin2_5Ms = 0.0;        //!< blocks erasable in 2.5 ms
        double fracSingleLoop = 0.0;
    };
    std::vector<PecCurve> curves;
    int blocksPerCurve = 0;
};

Fig4Data runFig4Experiment(const FarmConfig &farm_cfg,
                           const std::vector<double> &pecs,
                           const CampaignScope &scope = {});

/** Fig. 7: fail-bit count vs accumulated tEP in the final erase loop. */
struct Fig7Data
{
    struct Row
    {
        int nIspe = 0;
        /** max F over blocks, indexed by slots still needed (1..7). */
        std::array<double, 8> maxFailByRemaining{};
        std::array<double, 8> meanFailByRemaining{};
        std::array<int, 8> samples{};
    };
    std::vector<Row> rows;
    double gammaEstimate = 0.0;  //!< mean F at one slot remaining
    double deltaEstimate = 0.0;  //!< mean per-slot F decrease
};

Fig7Data runFig7Experiment(const FarmConfig &farm_cfg,
                           const std::vector<double> &pecs,
                           const CampaignScope &scope = {});

/** Fig. 8: P(mtEP(N) | fail-bit range of F(N-1)) and range occupancy. */
struct Fig8Data
{
    struct Row
    {
        int nIspe = 0;
        int samples = 0;
        std::array<double, 9> rangeFraction{};   //!< blocks per range
        /** mtepProb[range][slots-1]: P(final loop needs `slots`). */
        std::array<std::array<double, 8>, 9> mtepProb{};
        std::array<double, 9> modalProb{};       //!< max over slots
    };
    std::vector<Row> rows;
};

Fig8Data runFig8Experiment(const FarmConfig &farm_cfg,
                           const std::vector<double> &pecs,
                           const CampaignScope &scope = {});

/** Fig. 9: F(0) distribution under varying shallow-erasure length. */
struct Fig9Data
{
    struct Cell
    {
        int tseSlots = 2;
        double pec = 0.0;
        int samples = 0;
        std::array<double, 10> rangeFraction{};  //!< F(0) range occupancy
        double benefitFraction = 0.0;  //!< erased faster than default tEP
        double avgTbersMs = 0.0;       //!< mean shallow+remainder latency

        static const Fields<Cell> &fields();
    };
    std::vector<Cell> cells;
};

Fig9Data runFig9Experiment(const FarmConfig &farm_cfg,
                           const std::vector<int> &tse_slots,
                           const std::vector<double> &pecs,
                           const CampaignScope &scope = {});

/** Fig. 10: reliability margin after complete / insufficient erasure. */
struct Fig10Data
{
    struct CompleteRow
    {
        int nIspe = 0;
        int samples = 0;
        double maxMrber = 0.0;
        double margin = 0.0;  //!< requirement - maxMrber
    };
    struct InsufficientRow
    {
        int nIspe = 0;
        int range = 0;   //!< fail-bit range of F(N_ISPE - 1)
        int samples = 0;
        double maxMrber = 0.0;
        bool safe = false;  //!< meets the RBER requirement
    };
    std::vector<CompleteRow> complete;
    std::vector<InsufficientRow> insufficient;
    int rberRequirement = 63;
    int eccCapability = 72;
};

/**
 * Each N_ISPE row is measured on blocks conditioned to the fixed PEC
 * where that loop count is typical (the Fig. 4 bands).
 */
Fig10Data runFig10Experiment(const FarmConfig &farm_cfg,
                             const CampaignScope &scope = {});

/** Fig. 11: gamma/delta and insufficient-erasure RBER for other chips. */
struct Fig11Data
{
    ChipType type;
    double gammaEstimate = 0.0;
    double deltaEstimate = 0.0;
    Fig10Data reliability;
};

/** Run Fig. 11 on @p base's chip type, farm scale and seed. */
Fig11Data runFig11Experiment(const FarmConfig &base,
                             const CampaignScope &scope = {});

/**
 * Erase a block with Baseline loops but stop before the final loop
 * (insufficient erasure); returns the fail-bit count seen at the stop
 * point and commits the incomplete erase. Used by Figs. 10b/11b.
 */
struct InsufficientErase
{
    int nIspe = 0;          //!< loops a complete erase would have taken
    double failBits = 0.0;  //!< F(N_ISPE - 1)
    int range = 8;
    double mrberAfter = 0.0;

    static const Fields<InsufficientErase> &fields();
};

InsufficientErase eraseInsufficiently(NandChip &chip, BlockId id);

/** One completely erased block of Fig. 10a: loops used, max RBER. */
struct CompleteErase
{
    int n = 0;
    double mrber = 0.0;

    static const Fields<CompleteErase> &fields();
};

} // namespace aero

#endif // AERO_DEVCHAR_EXPERIMENTS_HH
