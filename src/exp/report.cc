#include "exp/report.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "erase/scheme_registry.hh"

namespace aero
{

Json
toJson(const SimPoint &pt)
{
    Json row = Json::object();
    row["workload"] = pt.workload;
    row["scheme"] = schemeKindName(pt.scheme);
    row["pec"] = pt.pec;
    row["suspension"] = suspensionModeName(pt.suspension);
    row["misprediction_rate"] = pt.mispredictionRate;
    row["rber_requirement"] = pt.rberRequirement;
    // The reclamation axes (PR 8) are emitted only off their defaults so
    // every pre-existing golden artifact stays byte-identical.
    if (pt.gcPolicy != "greedy")
        row["gc_policy"] = pt.gcPolicy;
    if (pt.wearLevel != "none")
        row["wear_level"] = pt.wearLevel;
    // Same contract for the SLO axis (PR 10).
    if (pt.sloPolicy != "none")
        row["slo_policy"] = pt.sloPolicy;
    row["requests"] = pt.requests;
    row["seed"] = pt.seed;
    return row;
}

Json
toJson(const SimResult &result)
{
    Json row = toJson(result.point);
    row["avg_read_us"] = result.avgReadUs;
    row["avg_write_us"] = result.avgWriteUs;
    row["iops"] = result.iops;
    row["p999_us"] = result.p999Us;
    row["p9999_us"] = result.p9999Us;
    row["p999999_us"] = result.p999999Us;
    row["erases"] = result.erases;
    row["avg_erase_ms"] = result.avgEraseMs;
    row["suspensions"] = result.suspensions;
    row["write_amplification"] = result.writeAmplification;
    return row;
}

SimResult
simResultFromJson(const Json &row)
{
    const auto need = [&](const char *key) -> const Json & {
        const Json *v = row.find(key);
        if (!v)
            AERO_FATAL("result row is missing '", key, "'");
        return *v;
    };
    SimResult r;
    r.point.workload = need("workload").asString();
    r.point.scheme = schemeKindFromName(need("scheme").asString());
    r.point.pec = need("pec").asDouble();
    r.point.suspension =
        suspensionModeFromName(need("suspension").asString());
    r.point.mispredictionRate = need("misprediction_rate").asDouble();
    r.point.rberRequirement =
        static_cast<int>(need("rber_requirement").asInt64());
    if (const Json *gc = row.find("gc_policy"))
        r.point.gcPolicy = gc->asString();
    if (const Json *wl = row.find("wear_level"))
        r.point.wearLevel = wl->asString();
    if (const Json *slo = row.find("slo_policy"))
        r.point.sloPolicy = slo->asString();
    r.point.requests = need("requests").asUint64();
    r.point.seed = need("seed").asUint64();
    r.avgReadUs = need("avg_read_us").asDouble();
    r.avgWriteUs = need("avg_write_us").asDouble();
    r.iops = need("iops").asDouble();
    r.p999Us = need("p999_us").asDouble();
    r.p9999Us = need("p9999_us").asDouble();
    r.p999999Us = need("p999999_us").asDouble();
    r.erases = need("erases").asUint64();
    r.avgEraseMs = need("avg_erase_ms").asDouble();
    r.suspensions = need("suspensions").asUint64();
    r.writeAmplification = need("write_amplification").asDouble();
    return r;
}

Json
toJson(const SweepSpec &spec)
{
    Json out = Json::object();
    Json workloads = Json::array();
    for (const auto &w : spec.workloads)
        workloads.push(w);
    out["workloads"] = std::move(workloads);
    Json schemes = Json::array();
    for (const auto k : spec.schemes)
        schemes.push(schemeKindName(k));
    out["schemes"] = std::move(schemes);
    Json pecs = Json::array();
    for (const double p : spec.pecs)
        pecs.push(p);
    out["pecs"] = std::move(pecs);
    Json suspensions = Json::array();
    for (const auto m : spec.suspensions)
        suspensions.push(suspensionModeName(m));
    out["suspensions"] = std::move(suspensions);
    Json misrates = Json::array();
    for (const double r : spec.mispredictionRates)
        misrates.push(r);
    out["misprediction_rates"] = std::move(misrates);
    Json rbers = Json::array();
    for (const int b : spec.rberRequirements)
        rbers.push(b);
    out["rber_requirements"] = std::move(rbers);
    // Reclamation axes only when swept off their defaults (see
    // toJson(SimResult)): keeps pre-PR-8 spec blocks — and the journal
    // fingerprints derived from them — byte-identical.
    if (spec.gcPolicies != std::vector<std::string>{"greedy"}) {
        Json gcs = Json::array();
        for (const auto &g : spec.gcPolicies)
            gcs.push(g);
        out["gc_policies"] = std::move(gcs);
    }
    if (spec.wearLevels != std::vector<std::string>{"none"}) {
        Json wls = Json::array();
        for (const auto &w : spec.wearLevels)
            wls.push(w);
        out["wear_levels"] = std::move(wls);
    }
    if (spec.sloPolicies != std::vector<std::string>{"none"}) {
        Json slos = Json::array();
        for (const auto &p : spec.sloPolicies)
            slos.push(p);
        out["slo_policies"] = std::move(slos);
        out["slo_spec"] = renderTenantSloSpec(spec.base.slo);
    }
    Json seeds = Json::array();
    for (const auto s : spec.seeds)
        seeds.push(s);
    out["seeds"] = std::move(seeds);
    out["requests"] = spec.requests;
    out["drive_capacity_gib"] =
        static_cast<double>(spec.base.capacityBytes()) /
        (1024.0 * 1024.0 * 1024.0);
    return out;
}

Json
configOf(const SweepSpec &spec)
{
    Json config = toJson(spec);
    config["drive"] = spec.base.summary();
    return config;
}

Json
sweepReport(const SweepSpec &spec, const std::vector<SimResult> &results)
{
    Json doc = Json::object();
    doc["schema"] = "aero-sweep/1";
    doc["spec"] = toJson(spec);
    Json rows = Json::array();
    for (const auto &r : results)
        rows.push(toJson(r));
    doc["results"] = std::move(rows);
    return doc;
}

std::string
toCsv(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    // Round-trippable doubles, like the JSON serializer's shortest form.
    os.precision(std::numeric_limits<double>::max_digits10);
    // The reclamation columns appear only when some row swept them off
    // their defaults, mirroring the conditional JSON emission.
    bool reclamation = false;
    bool slo = false;
    for (const auto &r : results) {
        if (r.point.gcPolicy != "greedy" || r.point.wearLevel != "none")
            reclamation = true;
        if (r.point.sloPolicy != "none")
            slo = true;
    }
    os << "workload,scheme,pec,suspension,misprediction_rate,"
          "rber_requirement,"
       << (reclamation ? "gc_policy,wear_level," : "")
       << (slo ? "slo_policy," : "")
       << "requests,seed,avg_read_us,avg_write_us,iops,"
          "p999_us,p9999_us,p999999_us,erases,avg_erase_ms,suspensions,"
          "write_amplification\n";
    for (const auto &r : results) {
        const SimPoint &pt = r.point;
        os << pt.workload << ',' << schemeKindName(pt.scheme) << ','
           << pt.pec << ',' << suspensionModeName(pt.suspension) << ','
           << pt.mispredictionRate << ',' << pt.rberRequirement << ',';
        if (reclamation)
            os << pt.gcPolicy << ',' << pt.wearLevel << ',';
        if (slo)
            os << pt.sloPolicy << ',';
        os << pt.requests << ',' << pt.seed << ',' << r.avgReadUs << ','
           << r.avgWriteUs << ',' << r.iops << ',' << r.p999Us << ','
           << r.p9999Us << ',' << r.p999999Us << ',' << r.erases << ','
           << r.avgEraseMs << ',' << r.suspensions << ','
           << r.writeAmplification << '\n';
    }
    return os.str();
}

void
writeTextFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        AERO_FATAL("cannot open '", path, "' for writing");
    out << content;
    out.flush();
    if (!out)
        AERO_FATAL("failed writing '", path, "'");
}

void
writeJsonFile(const std::string &path, const Json &doc)
{
    writeTextFile(path, doc.dump(2) + "\n");
    AERO_INFORM("wrote ", path);
}

std::string
readTextFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        AERO_FATAL("cannot open '", path, "' for reading");
    std::ostringstream content;
    content << in.rdbuf();
    if (in.bad())
        AERO_FATAL("failed reading '", path, "'");
    return content.str();
}

Json
readJsonFile(const std::string &path)
{
    return Json::parseOrDie(readTextFile(path), path);
}

} // namespace aero
