/**
 * @file
 * The flash translation layer: page-level mapping, round-robin write
 * allocation across planes, greedy GC with watermark triggering, stalled
 * write handling, and request-completion accounting. Extends the
 * conventional page-level FTL exactly where the paper's AERO-FTL does: the
 * erase path is delegated to a pluggable EraseScheme per chip.
 */

#ifndef AERO_SSD_FTL_HH
#define AERO_SSD_FTL_HH

#include <memory>
#include <vector>

#include "common/ring_fifo.hh"
#include "ssd/block_manager.hh"
#include "ssd/chip_agent.hh"
#include "ssd/mapping.hh"
#include "ssd/placement.hh"
#include "workload/trace.hh"

namespace aero
{

class Ftl : public FtlCallbacks
{
  public:
    Ftl(const SsdConfig &cfg, EventQueue &eq);
    ~Ftl() override;

    /** Age every block to the configured initial PEC (conditioning). */
    void preAge(double pec);

    /**
     * Map and (functionally) program the logical space, without timing,
     * in one pass over a fresh drive: placement, then wear
     * (ssd/placement.hh).
     */
    void prefill();

    /**
     * Steady-state preconditioning: `overwrites` random logical pages are
     * rewritten functionally (no timing), with inline functional GC, so
     * the drive starts dirty and at the GC watermark. Placement, then
     * wear.
     */
    void warmup(std::uint64_t overwrites);

    /**
     * Condition a fresh drive as Ssd(cfg) does: prefill, then the
     * configured warmup overwrites. The placement is copied from `cache`
     * when it holds this drive's PlacementKey, and computed (and offered
     * to `cache`) when not; the wear runs either way.
     */
    void condition(PlacementCache &cache);

    /** The placement state conditioning left (ssd/placement.hh). */
    PlacementImage placementImage() const;

    std::uint64_t warmupErases() const { return eraseLog.size(); }

    /** Submit one trace record at the current simulation time. */
    void submit(const TraceRecord &rec);

    /** All submitted requests completed? */
    bool drained() const { return liveRequests == 0 && !anyGcActive(); }

    SsdMetrics &metrics() { return stats; }
    const SsdConfig &config() const { return cfg; }
    NandChip &chipAt(int i);
    const PageMapping &pageMapping() const { return mapping; }
    const BlockManager &blockManager() const { return blocks; }

    /** @name FtlCallbacks */
    /** @{ */
    void onPageOpDone(const PageOp &op) override;
    void onEraseDone(int chip, BlockId block, const EraseOutcome &outcome,
                     GcJob *job) override;
    bool eraseUrgent(int chip, BlockId block) override;
    /** @} */

  private:
    friend struct FtlProbe;  //!< tests reach the host-page timer

    struct InflightRequest
    {
        IoOp op;
        Tick arrival;
        std::uint32_t remaining;
        TenantId tenant;
    };

    struct StalledWrite
    {
        Lpn lpn;
        std::uint64_t requestId;
        TenantId tenant;
    };

    /** Queue one page read into the current read burst. */
    void submitReadPage(Lpn lpn, std::uint64_t request_id, TenantId tenant);
    /** Dispatch every agent the current read burst touched, in order. */
    void flushReadBurst();
    /** @return false if no plane had space (write stalled). */
    bool submitWritePage(Lpn lpn, std::uint64_t request_id, TenantId tenant);
    /** @name Conditioning steps (ssd/placement.hh) */
    /** @{ */
    void placePrefill();
    void placeWarmup(std::uint64_t overwrites);
    /** Warmup's inline GC: placement only, each erase logged. */
    void functionalGc(int chip, int plane);
    /** Copy an image's placement into this fresh drive. */
    void restorePlacement(const PlacementImage &image);
    /** Replay the erase log's new entries through the schemes, then
     *  mark each block's programmed pages from the block table. */
    void wear();
    /** @} */
    void issueGcWrite(GcJob *job, Lpn lpn);
    void completeRequestPage(std::uint64_t request_id);
    /** Host-page timer handler: complete the oldest queued page. */
    void onHostPageDone();
    /** Step a scan to the next plane key, wrapping past the last. */
    void nextPlane(PlaneCursor &c) const;
    /** Program latency of the next page of `blk`, for a PageOp. */
    std::uint32_t programTicks(int chip, BlockId blk) const;
    void maybeStartGc(int chip, int plane);
    void maybeStartWearLevel(int chip, int plane);
    /** Run a GC (or wear-leveling) job on @p victim, if there is one. */
    void launchJob(int chip, int plane, BlockId victim, bool wear_level);
    void gcStep(GcJob *job);
    void retryStalledWrites();
    bool anyGcActive() const { return activeGcJobs > 0; }
    std::size_t planeKey(int chip, int plane) const;

    SsdConfig cfg;
    EventQueue &eq;
    std::vector<NandChip> chips;
    std::vector<std::unique_ptr<EraseScheme>> schemes;
    std::vector<Channel> channels;
    std::vector<std::unique_ptr<ChipAgent>> agents;
    PageMapping mapping;
    BlockManager blocks;
    SsdMetrics stats;

    /** @name Read-burst admission scratch (see flushReadBurst) */
    /** @{ */
    std::vector<int> burstChips;     //!< chips touched, in first-touch order
    std::vector<char> burstTouched;  //!< per-chip membership flag
    /** @} */

    /** Requests in flight by slot; a request's id is its slot. */
    std::vector<InflightRequest> inflight;
    std::vector<std::uint64_t> freeSlots;  //!< inflight slots to reuse
    std::size_t liveRequests = 0;
    RingFifo<StalledWrite> stalledWrites;
    RingFifo<StalledWrite> stalledRetry;  //!< retryStalledWrites' pass

    /**
     * Reads of never-written pages complete after hostOverhead alone:
     * the timer sits in the queue once per such page, and since every
     * entry is due at now() + hostOverhead they fire in the order of
     * this FIFO of request ids.
     */
    Timer hostPageDone;
    RingFifo<std::uint64_t> hostPageIds;

    /** functionalGc's victim pages, one block's worth. */
    std::vector<LivePage> gcLive;

    std::vector<std::unique_ptr<GcJob>> gcJobs;   //!< slot per plane
    int activeGcJobs = 0;
    PlaneCursor writePointer;  //!< round-robin user-write cursor
    std::vector<ErasedBlock> eraseLog;  //!< warmup GC's erases, in order
    std::size_t erasesWorn = 0;  //!< eraseLog entries wear() replayed
};

} // namespace aero

#endif // AERO_SSD_FTL_HH
