#include "workload/trace_io/tenant.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace aero
{

namespace
{

std::uint64_t
parseCount(const std::string &entry, const std::string &field,
           const char *what)
{
    if (field.empty())
        AERO_FATAL("bad tenant mix entry '", entry, "': empty ", what);
    std::uint64_t v = 0;
    for (char c : field) {
        if (c < '0' || c > '9')
            AERO_FATAL("bad tenant mix entry '", entry, "': ", what,
                       " '", field, "' is not a number");
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            AERO_FATAL("bad tenant mix entry '", entry, "': ", what,
                       " '", field, "' overflows");
        v = v * 10 + digit;
    }
    return v;
}

} // namespace

std::vector<TenantSource>
parseTenantMixSpec(const std::string &spec)
{
    std::vector<TenantSource> sources;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(start, comma - start);
        start = comma + 1;
        if (entry.empty())
            AERO_FATAL("bad tenant mix spec '", spec, "': empty entry");

        TenantSource src;
        src.label = entry;
        if (entry[0] == '@') {
            src.tracePath = entry.substr(1);
            if (src.tracePath.empty())
                AERO_FATAL("bad tenant mix entry '", entry,
                           "': empty trace path");
        } else {
            const std::size_t c1 = entry.find(':');
            if (c1 == std::string::npos) {
                src.preset = entry;
            } else {
                src.preset = entry.substr(0, c1);
                const std::size_t c2 = entry.find(':', c1 + 1);
                const std::string reqs =
                    entry.substr(c1 + 1, c2 == std::string::npos
                                             ? std::string::npos
                                             : c2 - c1 - 1);
                src.requests = parseCount(entry, reqs, "request count");
                if (src.requests == 0)
                    AERO_FATAL("bad tenant mix entry '", entry,
                               "': zero request count");
                if (c2 != std::string::npos) {
                    if (entry.find(':', c2 + 1) != std::string::npos)
                        AERO_FATAL("bad tenant mix entry '", entry,
                                   "': too many fields");
                    src.seed = parseCount(entry, entry.substr(c2 + 1),
                                          "seed");
                    src.hasSeed = true;
                }
            }
            if (src.preset.empty())
                AERO_FATAL("bad tenant mix entry '", entry,
                           "': empty preset name");
        }
        sources.push_back(std::move(src));
    }
    if (sources.empty())
        AERO_FATAL("empty tenant mix spec");
    if (sources.size() >
        static_cast<std::size_t>(std::numeric_limits<TenantId>::max()) + 1)
        AERO_FATAL("tenant mix has ", sources.size(),
                   " tenants (max ",
                   std::numeric_limits<TenantId>::max() + 1, ")");
    return sources;
}

namespace
{

std::uint64_t
parseSloNumber(const std::string &entry, const std::string &field,
               const char *what)
{
    if (field.empty())
        AERO_FATAL("bad tenant SLO entry '", entry, "': empty ", what);
    std::uint64_t v = 0;
    for (char c : field) {
        if (c < '0' || c > '9')
            AERO_FATAL("bad tenant SLO entry '", entry, "': ", what,
                       " '", field, "' is not a number");
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            AERO_FATAL("bad tenant SLO entry '", entry, "': ", what,
                       " '", field, "' overflows");
        v = v * 10 + digit;
    }
    return v;
}

} // namespace

const TenantSlo *
TenantSloSpec::find(TenantId tenant) const
{
    for (const TenantSlo &t : tenants)
        if (t.tenant == tenant)
            return &t;
    return nullptr;
}

TenantId
TenantSloSpec::maxTenant() const
{
    TenantId m = 0;
    for (const TenantSlo &t : tenants)
        m = std::max(m, t.tenant);
    return m;
}

TenantSloSpec
parseTenantSloSpec(const std::string &spec)
{
    constexpr std::uint32_t kMaxWeight = 1024;

    if (spec.empty())
        AERO_FATAL("empty tenant SLO spec");

    TenantSloSpec out;
    out.label = spec;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(start, comma - start);
        start = comma + 1;
        if (entry.empty())
            AERO_FATAL("bad tenant SLO spec '", spec, "': empty entry");

        const std::size_t c1 = entry.find(':');
        if (c1 == std::string::npos)
            AERO_FATAL("bad tenant SLO entry '", entry,
                       "': no settings (expected "
                       "<tenant>:<key>=<value>[:<key>=<value>...])");
        const std::uint64_t id =
            parseSloNumber(entry, entry.substr(0, c1), "tenant id");
        if (id > std::numeric_limits<TenantId>::max())
            AERO_FATAL("bad tenant SLO entry '", entry, "': tenant id ",
                       id, " out of range (max ",
                       std::numeric_limits<TenantId>::max(), ")");

        TenantSlo slo;
        slo.tenant = static_cast<TenantId>(id);
        if (out.find(slo.tenant) != nullptr)
            AERO_FATAL("bad tenant SLO spec '", spec,
                       "': duplicate tenant ", id);

        bool sawWeight = false, sawIops = false, sawBw = false,
             sawBurst = false, sawP99 = false;
        std::size_t fieldStart = c1 + 1;
        while (fieldStart <= entry.size()) {
            std::size_t colon = entry.find(':', fieldStart);
            if (colon == std::string::npos)
                colon = entry.size();
            const std::string field =
                entry.substr(fieldStart, colon - fieldStart);
            fieldStart = colon + 1;

            const std::size_t eq = field.find('=');
            if (eq == std::string::npos || eq == 0)
                AERO_FATAL("bad tenant SLO entry '", entry, "': field '",
                           field, "' is not <key>=<value>");
            const std::string key = field.substr(0, eq);
            const std::string value = field.substr(eq + 1);
            if (key == "weight") {
                if (sawWeight)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': duplicate key 'weight'");
                sawWeight = true;
                const std::uint64_t w =
                    parseSloNumber(entry, value, "weight");
                if (w < 1 || w > kMaxWeight)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': weight ", w, " out of range [1, ",
                               kMaxWeight, "]");
                slo.weight = static_cast<std::uint32_t>(w);
            } else if (key == "iops") {
                if (sawIops)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': duplicate key 'iops'");
                sawIops = true;
                slo.iopsBudget =
                    parseSloNumber(entry, value, "iops budget");
                if (slo.iopsBudget == 0)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': zero iops budget");
            } else if (key == "bw") {
                if (sawBw)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': duplicate key 'bw'");
                sawBw = true;
                slo.bwBudgetKBps =
                    parseSloNumber(entry, value, "bandwidth budget");
                if (slo.bwBudgetKBps == 0)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': zero bandwidth budget");
            } else if (key == "burst") {
                if (sawBurst)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': duplicate key 'burst'");
                sawBurst = true;
                slo.burst = parseSloNumber(entry, value, "burst");
                if (slo.burst == 0)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': zero burst allowance");
            } else if (key == "p99") {
                if (sawP99)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': duplicate key 'p99'");
                sawP99 = true;
                slo.p99TargetUs =
                    parseSloNumber(entry, value, "p99 target");
                if (slo.p99TargetUs == 0)
                    AERO_FATAL("bad tenant SLO entry '", entry,
                               "': zero p99 target");
            } else {
                AERO_FATAL("bad tenant SLO entry '", entry,
                           "': unknown key '", key,
                           "' (valid: weight, iops, bw, burst, p99)");
            }
        }
        out.tenants.push_back(slo);
    }
    if (out.tenants.empty())
        AERO_FATAL("empty tenant SLO spec");
    return out;
}

std::string
renderTenantSloSpec(const TenantSloSpec &spec)
{
    std::string s;
    for (const TenantSlo &t : spec.tenants) {
        if (!s.empty())
            s += ',';
        s += std::to_string(t.tenant);
        const std::size_t bare = s.size();
        if (t.weight != 1)
            s += ":weight=" + std::to_string(t.weight);
        if (t.iopsBudget != 0)
            s += ":iops=" + std::to_string(t.iopsBudget);
        if (t.bwBudgetKBps != 0)
            s += ":bw=" + std::to_string(t.bwBudgetKBps);
        if (t.burst != kDefaultSloBurst)
            s += ":burst=" + std::to_string(t.burst);
        if (t.p99TargetUs != 0)
            s += ":p99=" + std::to_string(t.p99TargetUs);
        if (s.size() == bare)
            s += ":weight=1"; // all-default entry still needs a setting
    }
    return s;
}

std::unique_ptr<TraceStream>
openTenantSource(const TenantSource &src, const SyntheticConfig &base)
{
    if (!src.tracePath.empty()) {
        auto stream = std::make_unique<FileTraceStream>(src.tracePath);
        if (stream->pageKB() != base.pageSizeKB)
            AERO_FATAL("tenant trace ", src.tracePath, " uses ",
                       stream->pageKB(), " KB pages but the mix runs at ",
                       base.pageSizeKB, " KB");
        return stream;
    }
    SyntheticConfig cfg = base;
    cfg.spec = workloadByName(src.preset);
    if (src.requests != 0)
        cfg.numRequests = src.requests;
    if (src.hasSeed)
        cfg.seed = src.seed;
    cfg.intensityScale = base.intensityScale * src.intensity;
    return std::make_unique<SyntheticTraceStream>(cfg);
}

TenantMix::TenantMix(std::vector<std::unique_ptr<TraceStream>> streams)
{
    AERO_CHECK(!streams.empty(), "tenant mix needs at least one stream");
    AERO_CHECK(streams.size() <=
                   static_cast<std::size_t>(
                       std::numeric_limits<TenantId>::max()) + 1,
               "tenant mix has too many streams");
    lanes.reserve(streams.size());
    for (auto &stream : streams) {
        Lane lane;
        lane.stream = std::move(stream);
        lane.alive = lane.stream->next(lane.head);
        lanes.push_back(std::move(lane));
    }
}

bool
TenantMix::next(TraceRecord &out)
{
    std::size_t best = lanes.size();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        if (!lanes[i].alive)
            continue;
        if (best == lanes.size() ||
            lanes[i].head.arrival < lanes[best].head.arrival)
            best = i;
    }
    if (best == lanes.size())
        return false;

    out = lanes[best].head;
    out.tenant = static_cast<TenantId>(best);
    AERO_CHECK(!started || out.arrival >= lastArrival,
               "tenant stream ", best, " is not arrival-ordered");
    started = true;
    lastArrival = out.arrival;

    TraceRecord refilled;
    if (lanes[best].stream->next(refilled)) {
        AERO_CHECK(refilled.arrival >= lanes[best].head.arrival,
                   "tenant stream ", best, " is not arrival-ordered");
        lanes[best].head = refilled;
    } else {
        lanes[best].alive = false;
    }
    return true;
}

} // namespace aero
