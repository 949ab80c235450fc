/**
 * @file
 * End-to-end benchmark harness for the simulated SSD. It drives the
 * library from outside, the way runSimPoint() does: Ssd(cfg), then
 * generateTrace(), then Ssd::run(), then the SsdMetrics percentiles, one
 * point after another on a single thread. Inside each point the Table-3
 * Poisson arrivals replay on their own schedule (an open loop in
 * simulated time).
 *
 *   aero_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                  [--trace-out <file>]
 *
 * Untraced (--trace 0), it repeats whole passes over the workload's
 * points until --seconds have gone by (at least kMinPasses of them) and
 * prints one JSON line per point and per pass. Around every point it
 * times a fixed batch of reference work, so that run.py can scale the
 * point's times to a nominal host speed. Traced
 * (--trace 1), it alternates untraced passes and passes with spans
 * recorded for --seconds, then runs a standalone Ftl conditioning split
 * per point and the isolated layer probes, prints one JSON line of
 * per-layer values and writes the spans as Chrome trace-event JSON to
 * --trace-out. run.py turns these lines into the benchmark's metrics and
 * checks the simulated outputs.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "core/aero_scheme.hh"
#include "devchar/simstudy.hh"
#include "exp/json.hh"
#include "ssd/mapping.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace aero;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "aero_perfbench: %s\n", msg.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

/** Current resident set, in bytes (/proc/self/statm). */
std::uint64_t
currentRssBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        die("cannot read /proc/self/statm");
    unsigned long long size = 0, resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (got != 2)
        die("cannot parse /proc/self/statm");
    return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/** Peak resident set of this process, in MB (VmHWM). */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    die("no VmHWM in /proc/self/status");
}

double
toMb(std::uint64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/** Print one flat JSON object as a line of its own. */
void
emit(const Json &line)
{
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Host speed reference
// ---------------------------------------------------------------------------

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Read and written through volatile, so the compiler can neither fold
// the reference work at build time nor drop it as unused.
volatile std::uint64_t referenceSeed = 0x9e3779b97f4a7c15ULL;
volatile std::uint64_t referenceSink;

/** One step of Marsaglia's xorshift64. */
inline std::uint64_t
xorshift(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    return x ^ (x << 17);
}

/** A dependent random walk over `table`, whose size is a power of two. */
void
randomWalk(std::vector<std::uint32_t> &table, int steps, std::uint64_t &x,
           std::uint64_t &acc)
{
    const auto mask = static_cast<std::uint32_t>(table.size() - 1);
    std::uint32_t at = 0;
    for (int i = 0; i < steps; ++i) {
        x = xorshift(x);
        at = (table[at] ^ static_cast<std::uint32_t>(x)) & mask;
        table[at] += static_cast<std::uint32_t>(x >> 32);
        if (x & 1)
            acc += table[at ^ 1];
    }
}

/**
 * Host seconds for one fixed batch of work that runs none of the
 * simulator's code, in four parts: random walks over a 128 KB and a 4 MB
 * table, an integer hash chain, and an event loop over a binary heap and
 * a hash map, the simulator's own mix. On a busy host the 4 MB walk slows
 * two to three times as much as the simulator and the other three parts
 * a little less than it; with the 4 MB walk at about a third of the
 * batch, the sum tracks it best (perfbench/NOTES.md). Its memory is
 * allocated on the first call and kept, so it leaves the allocator as it
 * found it for the points.
 */
double
referenceOnceS()
{
    constexpr std::size_t kQueued = 4096;
    static std::vector<std::uint32_t> small(1 << 15), large(1 << 20);
    static std::vector<std::uint64_t> heap(kQueued);
    static std::unordered_map<std::uint32_t, std::uint64_t> map(1 << 16);
    for (auto *table : {&small, &large})
        for (std::size_t i = 0; i < table->size(); ++i)
            (*table)[i] = static_cast<std::uint32_t>(i) * 2654435761u;
    for (std::size_t i = 0; i < kQueued; ++i)
        heap[i] = i * 7;  // ascending: already a min-heap
    map.clear();
    const auto later = std::greater<>();

    const auto t0 = Clock::now();
    std::uint64_t x = referenceSeed, acc = 0;
    randomWalk(small, 1 << 19, x, acc);
    randomWalk(large, 1 << 18, x, acc);
    for (int i = 0; i < (1 << 22); ++i) {
        x = xorshift(x);
        acc += (x * 0xff51afd7ed558ccdULL) >> (x & 31);
    }
    for (int i = 0; i < (1 << 17); ++i) {
        x = xorshift(x);
        std::pop_heap(heap.begin(), heap.end(), later);
        const std::uint64_t now = heap.back();
        heap.back() = now + (x & 1023);
        std::push_heap(heap.begin(), heap.end(), later);
        std::uint64_t &v = map[static_cast<std::uint32_t>(x) & 0xffff];
        v += now;
        acc += v;
    }
    const double s = secondsBetween(t0, Clock::now());
    referenceSink = acc;
    return s;
}

/**
 * The median of referenceOnceS() over enough batches to take about
 * `budgetS` (1 to 15 of them). run.py divides each point's times by the
 * reference timed around it, which cancels most of the host's swings.
 */
double
hostReferenceS(double budgetS)
{
    std::vector<double> v;
    double spent = 0.0;
    do {
        v.push_back(referenceOnceS());
        spent += v.back();
    } while (spent < budgetS && v.size() < 15);
    return median(v);
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once at the end
// ---------------------------------------------------------------------------

class Tracer
{
  public:
    explicit Tracer(bool on) : enabled(on), origin(Clock::now()) {}

    bool on() const { return enabled; }

    int
    begin(const std::string &name, int point)
    {
        if (!enabled)
            return -1;
        const int parent = open.empty() ? -1 : open.back();
        spans.push_back(Span{name, point, parent, Clock::now(), {}});
        open.push_back(static_cast<int>(spans.size()) - 1);
        return open.back();
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans[id].t1 = Clock::now();
        open.pop_back();
    }

    /** Chrome trace-event JSON: one complete ("X") event per span. */
    void
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            die("cannot write spans to " + path);
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const double ts = secondsBetween(origin, s.t0) * 1e6;
            const double dur = secondsBetween(s.t0, s.t1) * 1e6;
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"id\":%zu,\"parent\":%d,\"point\":%d}}\n",
                         i == 0 ? "" : ",", s.name.c_str(), ts, dur, i,
                         s.parent, s.point);
        }
        std::fprintf(f, "]}\n");
        std::fclose(f);
    }

  private:
    struct Span
    {
        std::string name;
        int point;   //!< shared by every span of one simulated point
        int parent;  //!< enclosing span, -1 at top level
        Clock::time_point t0, t1;
    };

    bool enabled;
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** Span over a scope; a no-op when tracing is off. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const std::string &name, int point = -1)
        : tracer(t), id(t.begin(name, point))
    {
    }
    ~ScopedSpan() { tracer.end(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer;
    int id;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr double kPec = 2500.0;
constexpr std::uint64_t kRequests = 120000;
/** paper-drive replays more, so its replay time is not lost in noise. */
constexpr std::uint64_t kPaperRequests = 1200000;
/** Untraced passes run even past --seconds: setup_s needs a median. */
constexpr int kMinPasses = 3;

struct PointSpec
{
    std::string workload;  //!< Table-3 preset
    SchemeKind scheme;
    Arbitration arbitration;
    bool paperDrive;
    std::uint64_t requests;

    std::string
    label() const
    {
        return workload + "/" + schemeKindName(scheme);
    }

    /** Everything conditioning reads besides the seed. */
    std::string
    conditioningKey() const
    {
        return std::string(schemeKindName(scheme)) +
               (paperDrive ? "/paper/" : "/bench/") +
               arbitrationName(arbitration);
    }
};

struct WorkloadDef
{
    std::string name;
    std::vector<PointSpec> points;
};

/**
 * fig14-grid is the paper's read-tail campaign, where half the points
 * repeat an earlier point's conditioning; gc-churn is bound by GC replay
 * under queued channels; paper-drive is one Table-2 drive whose
 * conditioning and mapping memory dominate. A paper-drive pass takes
 * about 16 s, so its kMinPasses passes outrun the --seconds the others
 * use.
 */
std::vector<WorkloadDef>
workloads()
{
    WorkloadDef grid{"fig14-grid", {}};
    for (const char *w : {"prxy", "usr"})
        for (const SchemeKind s : allSchemes())
            grid.points.push_back(
                {w, s, Arbitration::Legacy, false, kRequests});

    WorkloadDef churn{"gc-churn", {}};
    for (const SchemeKind s : {SchemeKind::Baseline, SchemeKind::Aero})
        churn.points.push_back(
            {"ali.A", s, Arbitration::Queued, false, kRequests});

    WorkloadDef paper{"paper-drive", {{"prxy", SchemeKind::Aero,
                                       Arbitration::Legacy, true,
                                       kPaperRequests}}};
    return {grid, churn, paper};
}

SsdConfig
configFor(const PointSpec &p, std::uint64_t seed)
{
    SsdConfig cfg = p.paperDrive ? SsdConfig::paper() : SsdConfig::bench();
    cfg.scheme = p.scheme;
    cfg.initialPec = kPec;
    cfg.arbitration = p.arbitration;
    cfg.seed = seed ^ 0x51ULL;  // the drive seed runSimPoint derives
    return cfg;
}

SyntheticConfig
traceConfigFor(const PointSpec &p, const SsdConfig &cfg, std::uint64_t seed)
{
    SyntheticConfig wc;
    wc.spec = workloadByName(p.workload);
    wc.footprintPages = cfg.logicalPages();
    wc.numRequests = p.requests;
    wc.seed = seed;
    return wc;
}

/** Points whose conditioning inputs repeat an earlier point's. */
int
conditioningRepeats(const WorkloadDef &wl)
{
    std::set<std::string> seen;
    int repeats = 0;
    for (const PointSpec &p : wl.points)
        if (!seen.insert(p.conditioningKey()).second)
            ++repeats;
    return repeats;
}

// ---------------------------------------------------------------------------
// One simulated point
// ---------------------------------------------------------------------------

struct PointResult
{
    std::uint64_t records = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    bool drained = false;
    std::uint64_t erases = 0;
    std::uint64_t eraseLoops = 0;
    std::uint64_t suspensions = 0;
    std::uint64_t gcInvocations = 0;
    std::uint64_t gcMigratedPages = 0;
    std::uint64_t events = 0;
    std::uint64_t finalTick = 0;
    double readMeanUs = 0.0;
    double writeMeanUs = 0.0;
    double iops = 0.0;
    std::uint64_t readP999Ticks = 0;
    std::uint64_t readP9999Ticks = 0;
    std::uint64_t readP999999Ticks = 0;
    double wa = 0.0;
    std::uint64_t warmupErases = 0;
    std::uint64_t hostWaitTicks = 0;
    std::uint64_t gcWaitTicks = 0;
    std::uint64_t channelGrants = 0;
    double setupS = 0.0;
    double tracegenS = 0.0;
    double replayS = 0.0;
    double reportS = 0.0;
    double wallS = 0.0;  //!< the whole point, teardown included
    double rssAfterSetupMb = 0.0;
    double refBeforeS = 0.0;  //!< hostReferenceS() just before the point,
    double refMidS = 0.0;     //!< between its setup and its trace,
    double refAfterS = 0.0;   //!< and just after it
};

PointResult
runPoint(const PointSpec &p, std::uint64_t seed, Tracer &tr, int id)
{
    ScopedSpan point(tr, "point " + p.label(), id);
    PointResult r;
    const SsdConfig cfg = configFor(p, seed);

    const auto t0 = Clock::now();
    std::unique_ptr<Ssd> ssd;
    {
        ScopedSpan s(tr, "ssd.setup", id);
        ssd = std::make_unique<Ssd>(cfg);
    }
    const auto t1 = Clock::now();
    r.rssAfterSetupMb = toMb(currentRssBytes());
    // Not part of the point's times: wallS leaves this gap out.
    {
        ScopedSpan s(tr, "host.reference", id);
        r.refMidS = hostReferenceS(0.04 * secondsBetween(t0, t1));
    }
    const auto t1Resume = Clock::now();

    Trace trace;
    {
        ScopedSpan s(tr, "workload.tracegen", id);
        trace = generateTrace(traceConfigFor(p, ssd->config(), seed));
    }
    const auto t2 = Clock::now();

    const std::uint64_t events0 = ssd->eventQueue().processed();
    {
        ScopedSpan s(tr, "ssd.replay", id);
        ssd->run(trace);
    }
    const auto t3 = Clock::now();

    // The statistics runSimPoint reports, extracted the same way.
    const SsdMetrics &m = ssd->metrics();
    {
        ScopedSpan s(tr, "stats.report", id);
        r.readMeanUs = m.readLatency.mean() / static_cast<double>(kUs);
        r.writeMeanUs = m.writeLatency.mean() / static_cast<double>(kUs);
        r.iops = m.iops();
        r.readP999Ticks = m.readLatency.percentile(0.999);
        r.readP9999Ticks = m.readLatency.percentile(0.9999);
        r.readP999999Ticks = m.readLatency.percentile(0.999999);
    }
    const auto t4 = Clock::now();

    r.records = trace.size();
    r.reads = m.reads;
    r.writes = m.writes;
    r.drained = ssd->eventQueue().empty() && ssd->ftl().drained();
    r.erases = m.erases;
    r.eraseLoops = m.eraseLoops;
    r.suspensions = m.eraseSuspensions;
    r.gcInvocations = m.gcInvocations;
    r.gcMigratedPages = m.gcMigratedPages;
    r.events = ssd->eventQueue().processed() - events0;
    r.finalTick = ssd->eventQueue().now();
    r.wa = m.writeAmplification();
    r.warmupErases = ssd->ftl().warmupErases();
    r.hostWaitTicks = m.hostChannelWaitTicks;
    r.gcWaitTicks = m.gcChannelWaitTicks;
    r.channelGrants =
        m.hostChannelGrants + m.gcChannelGrants + m.eraseChannelGrants;
    r.setupS = secondsBetween(t0, t1);
    r.tracegenS = secondsBetween(t1Resume, t2);
    r.replayS = secondsBetween(t2, t3);
    r.reportS = secondsBetween(t3, t4);

    {
        ScopedSpan s(tr, "ssd.teardown", id);
        ssd.reset();
    }
    r.wallS = r.setupS + secondsBetween(t1Resume, Clock::now());
    return r;
}

void
printPoint(int pass, bool traced, const PointSpec &p, const PointResult &r)
{
    Json line = Json::object();
    line["kind"] = "point";
    line["pass"] = pass;
    line["traced"] = traced;
    line["point"] = p.label();
    line["records"] = r.records;
    line["reads"] = r.reads;
    line["writes"] = r.writes;
    line["drained"] = r.drained;
    line["erases"] = r.erases;
    line["erase_loops"] = r.eraseLoops;
    line["suspensions"] = r.suspensions;
    line["gc_migrated_pages"] = r.gcMigratedPages;
    line["events"] = r.events;
    line["final_tick"] = r.finalTick;
    line["read_p9999_ticks"] = r.readP9999Ticks;
    line["wa"] = r.wa;
    line["read_p999_ticks"] = r.readP999Ticks;
    line["read_p999999_ticks"] = r.readP999999Ticks;
    line["read_mean_us"] = r.readMeanUs;
    line["write_mean_us"] = r.writeMeanUs;
    line["iops"] = r.iops;
    line["setup_s"] = r.setupS;
    line["replay_s"] = r.replayS;
    line["wall_s"] = r.wallS;
    line["ref_before_s"] = r.refBeforeS;
    line["ref_mid_s"] = r.refMidS;
    line["ref_after_s"] = r.refAfterS;
    emit(line);
}

struct PassResult
{
    double wallS = 0.0;
    std::vector<PointResult> points;
};

/** Each point's median of `field` across the passes, summed over points. */
double
sumOfMedians(const std::vector<PassResult> &passes, double PointResult::*field)
{
    double total = 0.0;
    for (std::size_t i = 0; i < passes.front().points.size(); ++i) {
        std::vector<double> v;
        for (const PassResult &p : passes)
            v.push_back(p.points[i].*field);
        total += median(v);
    }
    return total;
}

PassResult
runPass(const WorkloadDef &wl, std::uint64_t seed, Tracer &tr, int pass)
{
    ScopedSpan span(tr, "pass");
    PassResult out;
    const auto t0 = Clock::now();
    // Reference batches worth about 4% of the point they bracket.
    double ref = hostReferenceS(0.0);
    for (std::size_t i = 0; i < wl.points.size(); ++i) {
        out.points.push_back(
            runPoint(wl.points[i], seed, tr, static_cast<int>(i)));
        PointResult &r = out.points.back();
        r.refBeforeS = ref;
        r.refAfterS = ref = hostReferenceS(0.04 * r.wallS);
        printPoint(pass, tr.on(), wl.points[i], r);
    }
    out.wallS = secondsBetween(t0, Clock::now());

    double setup = 0.0, replay = 0.0;
    for (const PointResult &r : out.points) {
        setup += r.setupS;
        replay += r.replayS;
    }
    Json line = Json::object();
    line["kind"] = "pass";
    line["pass"] = pass;
    line["traced"] = tr.on();
    line["wall_s"] = out.wallS;
    line["setup_s"] = setup;
    line["replay_s"] = replay;
    line["peak_rss_mb"] = peakRssMb();
    emit(line);
    return out;
}

// ---------------------------------------------------------------------------
// Isolated layer probes
// ---------------------------------------------------------------------------

struct MappingProbe
{
    double nsPerUpdate = 0.0;
    double bytesPerPage = 0.0;
    std::uint64_t updates = 0;
};

/**
 * PageMapping::update on a paper-sized table: map every logical page
 * once (as prefill does), then time random-LPN overwrites onto fresh
 * physical pages (as warmup does), in batches.
 */
MappingProbe
probeMapping(std::uint64_t seed, Tracer &tr)
{
    ScopedSpan span(tr, "probe.mapping");
    constexpr int kBatches = 9;
    constexpr std::uint64_t kBatch = 400000;
    const SsdConfig cfg = SsdConfig::paper();
    const std::uint64_t logical = cfg.logicalPages();
    const std::uint64_t physical = cfg.physicalPages();
    if (logical + kBatches * kBatch > physical)
        die("mapping probe would overrun the physical space");

    MappingProbe out;
    const std::uint64_t rss0 = currentRssBytes();
    auto map = std::make_unique<PageMapping>(
        logical, cfg.totalChips(), cfg.blocksPerChip(),
        cfg.geometry.pagesPerBlock);
    for (Lpn lpn = 0; lpn < logical; ++lpn)
        map->update(lpn, lpn);
    out.bytesPerPage = static_cast<double>(currentRssBytes() - rss0) /
                       static_cast<double>(physical);

    Rng rng(seed ^ 0x6d61ULL);
    Ppn next = logical;
    std::vector<double> ns;
    std::uint64_t invalidated = 0;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kBatch; ++i)
            invalidated += map->update(rng.below(logical), next++) !=
                           kInvalidPpn;
        ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                     static_cast<double>(kBatch));
    }
    out.updates = kBatches * kBatch;
    if (invalidated != out.updates || map->mappedCount() != logical)
        die("mapping probe: overwrites did not invalidate their old pages");
    out.nsPerUpdate = median(ns);
    return out;
}

/** A 64-block chip pre-aged to the benchmark's PEC. */
std::unique_ptr<NandChip>
agedChip(std::uint64_t seed)
{
    const auto params = ChipParams::forType(ChipType::Tlc3d48L);
    auto chip = std::make_unique<NandChip>(params, ChipGeometry{1, 64, 8},
                                           seed, 1.0);
    for (int b = 0; b < chip->numBlocks(); ++b)
        chip->ageBaseline(static_cast<BlockId>(b), static_cast<int>(kPec));
    return chip;
}

struct EraseProbe
{
    double nsPerErase = 0.0;
    std::uint64_t erases = 0;
    std::uint64_t loops = 0;
};

/** eraseNow() through one scheme on a pre-aged chip, in batches. */
EraseProbe
probeErase(SchemeKind kind, std::uint64_t seed, Tracer &tr)
{
    ScopedSpan span(tr, std::string("probe.erase.") + schemeKindName(kind));
    constexpr int kBatches = 7;
    constexpr int kBatch = 256;
    auto chip = agedChip(seed);
    SchemeOptions opts;
    opts.seed = seed;
    auto scheme = makeEraseScheme(kind, *chip, opts);
    EraseProbe out;
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kBatch; ++i) {
            const auto blk = static_cast<BlockId>(i % chip->numBlocks());
            out.loops += static_cast<std::uint64_t>(
                eraseNow(*scheme, blk).loops);
        }
        ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 / kBatch);
    }
    out.erases = static_cast<std::uint64_t>(kBatches) * kBatch;
    out.nsPerErase = median(ns);
    return out;
}

struct FelpProbe
{
    double nsPerCall = 0.0;
    std::uint64_t calls = 0;
    double leftoverSum = 0.0;
};

/** Felp::allowedLeftoverSlots across a spread of block PECs. */
FelpProbe
probeFelp(std::uint64_t seed, Tracer &tr)
{
    ScopedSpan span(tr, "probe.felp");
    constexpr int kBatches = 7;
    constexpr int kBatch = 1000;
    auto chip = agedChip(seed);
    SchemeOptions opts;
    opts.seed = seed;
    auto scheme = makeEraseScheme(SchemeKind::Aero, *chip, opts);
    const Felp &felp = dynamic_cast<AeroScheme &>(*scheme).felp();
    FelpProbe out;
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kBatch; ++i)
            out.leftoverSum += felp.allowedLeftoverSlots(kPec + i);
        ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 / kBatch);
    }
    out.calls = static_cast<std::uint64_t>(kBatches) * kBatch;
    out.nsPerCall = median(ns);
    return out;
}

struct TraceProbe
{
    double recordsPerS = 0.0;
    std::uint64_t records = 0;
};

/** generateTrace() for the workload's first point, repeated. */
TraceProbe
probeTracegen(const PointSpec &p, std::uint64_t seed, Tracer &tr)
{
    ScopedSpan span(tr, "probe.tracegen");
    constexpr int kReps = 5;
    const SyntheticConfig wc = traceConfigFor(p, configFor(p, seed), seed);
    TraceProbe out;
    std::vector<double> rate;
    for (int i = 0; i < kReps; ++i) {
        const auto t0 = Clock::now();
        const Trace trace = generateTrace(wc);
        rate.push_back(static_cast<double>(trace.size()) /
                       secondsBetween(t0, Clock::now()));
        out.records = trace.size();
    }
    out.recordsPerS = median(rate);
    return out;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

struct Conditioning
{
    double buildS = 0.0;
    double prefillS = 0.0;
    double warmupS = 0.0;
    std::uint64_t warmupErases = 0;
};

/** Condition a standalone Ftl step by step, as Ssd(cfg) does in one go. */
Conditioning
conditionStandalone(const PointSpec &p, std::uint64_t seed, Tracer &tr,
                    int id)
{
    ScopedSpan span(tr, "conditioning " + p.label(), id);
    const SsdConfig cfg = configFor(p, seed);
    Conditioning c;
    EventQueue eq;
    const auto t0 = Clock::now();
    std::unique_ptr<Ftl> ftl;
    {
        ScopedSpan s(tr, "ssd.ftl_build", id);
        ftl = std::make_unique<Ftl>(cfg, eq);
    }
    const auto t1 = Clock::now();
    auto t2 = t1, t3 = t1;
    if (cfg.prefillFraction > 0.0) {
        {
            ScopedSpan s(tr, "ssd.prefill", id);
            ftl->prefill();
        }
        t2 = Clock::now();
        {
            ScopedSpan s(tr, "ssd.warmup", id);
            ftl->warmup(static_cast<std::uint64_t>(
                static_cast<double>(cfg.logicalPages()) *
                cfg.warmupOverwriteFraction));
        }
        t3 = Clock::now();
    }
    c.buildS = secondsBetween(t0, t1);
    c.prefillS = secondsBetween(t1, t2);
    c.warmupS = secondsBetween(t2, t3);
    c.warmupErases = ftl->warmupErases();
    return c;
}

/**
 * Alternate untraced and traced passes for `seconds` (at least one pair),
 * so host noise hits both sides alike; then split conditioning and run
 * the isolated probes with spans on.
 */
void
tracedRun(const WorkloadDef &wl, std::uint64_t seed, double seconds,
          const std::string &traceOut)
{
    Tracer off(false);
    Tracer tr(true);
    std::vector<PassResult> plain, tracedPasses;
    const auto t0 = Clock::now();
    double lastPair = 0.0;
    for (int pass = 0;; pass += 2) {
        const double elapsed = secondsBetween(t0, Clock::now());
        if (pass > 0 && elapsed + lastPair > seconds)
            break;
        plain.push_back(runPass(wl, seed, off, pass));
        tracedPasses.push_back(runPass(wl, seed, tr, pass + 1));
        lastPair = plain.back().wallS + tracedPasses.back().wallS;
    }
    const PassResult &traced = tracedPasses.front();

    Conditioning split;
    bool erasesAgree = true;
    for (std::size_t i = 0; i < wl.points.size(); ++i) {
        const Conditioning c = conditionStandalone(
            wl.points[i], seed, tr, static_cast<int>(i));
        split.buildS += c.buildS;
        split.prefillS += c.prefillS;
        split.warmupS += c.warmupS;
        split.warmupErases += c.warmupErases;
        erasesAgree &= c.warmupErases == traced.points[i].warmupErases;
    }

    const MappingProbe mapping = probeMapping(seed, tr);
    std::vector<std::pair<SchemeKind, EraseProbe>> erase;
    for (const SchemeKind k : allSchemes())
        erase.emplace_back(k, probeErase(k, seed, tr));
    const FelpProbe felp = probeFelp(seed, tr);
    const TraceProbe tracegen = probeTracegen(wl.points.front(), seed, tr);

    PointResult sum;
    double allWrites = 0.0;  //!< user + GC + WL page writes
    double rssAfterSetup = 0.0;
    for (const PointResult &r : traced.points) {
        sum.records += r.records;
        sum.writes += r.writes;
        sum.erases += r.erases;
        sum.eraseLoops += r.eraseLoops;
        sum.suspensions += r.suspensions;
        sum.gcInvocations += r.gcInvocations;
        sum.gcMigratedPages += r.gcMigratedPages;
        sum.events += r.events;
        sum.hostWaitTicks += r.hostWaitTicks;
        sum.gcWaitTicks += r.gcWaitTicks;
        sum.channelGrants += r.channelGrants;
        allWrites += r.wa * static_cast<double>(r.writes);
        rssAfterSetup = std::max(rssAfterSetup, r.rssAfterSetupMb);
    }
    sum.tracegenS = sumOfMedians(tracedPasses, &PointResult::tracegenS);
    sum.replayS = sumOfMedians(tracedPasses, &PointResult::replayS);
    sum.reportS = sumOfMedians(tracedPasses, &PointResult::reportS);
    const double plainWall = sumOfMedians(plain, &PointResult::wallS);
    const double tracedWall = sumOfMedians(tracedPasses, &PointResult::wallS);
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    std::vector<double> refs;
    for (const PassResult &p : plain)
        for (const PointResult &r : p.points)
            refs.push_back(0.5 * (r.refBeforeS + r.refAfterS));

    Json layers = Json::object();
    layers["kind"] = "layers";
    layers["ssd.ftl_build_s"] = split.buildS;
    layers["ssd.prefill_s"] = split.prefillS;
    layers["ssd.warmup_s"] = split.warmupS;
    layers["ssd.warmup_erases"] = split.warmupErases;
    layers["warmup_erases_agree"] = erasesAgree;
    layers["ssd.rss_after_setup_mb"] = rssAfterSetup;
    layers["ssd.mapping_update_ns"] = mapping.nsPerUpdate;
    layers["ssd.mapping_bytes_per_page"] = mapping.bytesPerPage;
    layers["mapping_probe_updates"] = mapping.updates;
    layers["ssd.replay_s"] = sum.replayS;
    layers["ssd.gc_invocations"] = sum.gcInvocations;
    layers["ssd.gc_migrated_pages"] = sum.gcMigratedPages;
    layers["ssd.write_amplification"] =
        ratio(allWrites, static_cast<double>(sum.writes));
    layers["ssd.host_channel_wait_us"] = ticksToUs(sum.hostWaitTicks);
    layers["ssd.gc_channel_wait_us"] = ticksToUs(sum.gcWaitTicks);
    layers["ssd.channel_grants"] = sum.channelGrants;
    layers["sim.events"] = sum.events;
    layers["sim.events_per_request"] = ratio(
        static_cast<double>(sum.events), static_cast<double>(sum.records));
    layers["sim.ns_per_event"] =
        ratio(sum.replayS * 1e9, static_cast<double>(sum.events));
    layers["erase.erases"] = sum.erases;
    layers["erase.loops_per_erase"] = ratio(
        static_cast<double>(sum.eraseLoops), static_cast<double>(sum.erases));
    layers["erase.suspensions"] = sum.suspensions;
    for (const auto &[kind, probe] : erase) {
        const std::string name = schemeKindName(kind);
        layers["erase.ns_per_erase." + name] = probe.nsPerErase;
        layers["erase_probe_erases." + name] = probe.erases;
        layers["erase_probe_loops." + name] = probe.loops;
    }
    layers["core.felp_leftover_ns"] = felp.nsPerCall;
    layers["felp_probe_calls"] = felp.calls;
    layers["felp_probe_leftover_sum"] = felp.leftoverSum;
    layers["workload.tracegen_s"] = sum.tracegenS;
    layers["workload.records_per_s"] = tracegen.recordsPerS;
    layers["tracegen_probe_records"] = tracegen.records;
    layers["stats.report_s"] = sum.reportS;
    layers["trace.pass_pairs"] = plain.size();
    layers["trace.untraced_wall_s"] = plainWall;
    layers["trace.traced_wall_s"] = tracedWall;
    layers["trace.overhead_s"] = tracedWall - plainWall;
    layers["host.reference_s"] = median(refs);
    emit(layers);

    if (!traceOut.empty())
        tr.write(traceOut);
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--trace-out")
            a.traceOut = v;
        else
            die("unknown flag " + flag);
    }
    return a;
}

int
benchMain(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<WorkloadDef> all = workloads();
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const WorkloadDef &w) {
                                     return w.name == args.workload;
                                 });
    if (it == all.end())
        die("unknown workload '" + args.workload + "'");
    const WorkloadDef &wl = *it;

    Json line = Json::object();
    line["kind"] = "workload";
    line["name"] = wl.name;
    line["points"] = wl.points.size();
    line["conditioning_repeats"] = conditioningRepeats(wl);
    line["requests_per_point"] = wl.points.front().requests;
    line["pec"] = kPec;
    emit(line);

    if (args.trace) {
        tracedRun(wl, args.seed, args.seconds, args.traceOut);
    } else {
        Tracer off(false);
        const auto t0 = Clock::now();
        double lastWall = 0.0;
        for (int pass = 0;; ++pass) {
            const double elapsed = secondsBetween(t0, Clock::now());
            if (pass >= kMinPasses && elapsed + lastWall > args.seconds)
                break;
            lastWall = runPass(wl, args.seed, off, pass).wallS;
        }
    }
    Json done = Json::object();
    done["kind"] = "done";
    done["peak_rss_mb"] = peakRssMb();
    emit(done);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv);
}
