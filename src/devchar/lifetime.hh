/**
 * @file
 * Endurance study: cycle block populations to death under each erase
 * scheme and record the average max-RBER trajectory (the paper's Fig. 13)
 * plus the lifetime (PEC at which the average crosses the RBER
 * requirement). Misprediction injection and reduced RBER requirements
 * reuse the same engine for the Figs. 16/17 sensitivity studies.
 */

#ifndef AERO_DEVCHAR_LIFETIME_HH
#define AERO_DEVCHAR_LIFETIME_HH

#include <vector>

#include "devchar/farm.hh"
#include "erase/scheme.hh"
#include "exp/campaign.hh"

namespace aero
{

struct LifetimeConfig
{
    FarmConfig farm;
    int maxPec = 10000;
    int checkpointEvery = 250;
    /** The schemes' options; rberRequirement is also the lifetime limit. */
    SchemeOptions schemeOptions;
    /**
     * Thread-pool size for the per-chip shards of one run() (0 =
     * AERO_SWEEP_THREADS / hardware). Results are identical for any
     * value: shards are whole chips and partials fold in chip order.
     */
    int threads = 0;
};

struct LifetimeResult
{
    SchemeKind scheme;
    /** (PEC, average M_RBER) checkpoints — the Fig. 13 curve. */
    std::vector<std::pair<double, double>> curve;
    /** PEC where the average M_RBER crosses the requirement. */
    double lifetimePec = 0.0;
    bool crossed = false;
    double avgEraseLatencyMs = 0.0;
    double avgLoops = 0.0;
    double freshMrber = 0.0;  //!< average after the first erase

    static const Fields<LifetimeResult> &fields();
};

class LifetimeTester
{
  public:
    explicit LifetimeTester(const LifetimeConfig &cfg) : cfg(cfg) {}

    /**
     * Cycle one scheme's population to death. The per-checkpoint farm
     * loop is sharded chip-per-task across the thread pool
     * (cfg.threads); chips are independent and the partial sums fold in
     * chip order, so the result is deterministic across thread counts.
     */
    LifetimeResult run(SchemeKind scheme) const;

    /**
     * Run all five schemes (the full Fig. 13), fanned out across the
     * sweep thread pool (AERO_SWEEP_THREADS); results in paper order.
     * With a journal-bearing @p scope, each completed scheme is one
     * flushed checkpoint record (keyed by scheme name) and a rerun
     * resumes from the journal, bit-identically.
     */
    std::vector<LifetimeResult>
    runAll(const CampaignScope &scope = {}) const;

  private:
    LifetimeConfig cfg;
};

} // namespace aero

#endif // AERO_DEVCHAR_LIFETIME_HH
