#include "exp/report.hh"

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/logging.hh"

namespace aero
{

Json
toJson(const SimPoint &pt)
{
    Json row = Json::object();
    forEachColumn(pt, [&](const std::string &column, Json value,
                          bool omitted) {
        if (!omitted)
            row[column] = std::move(value);
    });
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
    for (const SweepAxis &axis : sweepAxes()) {
        if (const Json *value = row.find(axis.column))
            axis.set(*value, r.point);
        else if (!axis.optional)
            AERO_FATAL("result row is missing '", axis.column, "'");
    }
    r.point.requests = need("requests").asUint64();
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
    for (const SweepAxis &axis : sweepAxes()) {
        Json values = Json::array();
        SimPoint pt;
        for (std::size_t i = 0; i < axis.size(spec); ++i) {
            axis.assign(spec, i, pt);
            values.push(axis.get(pt));
        }
        if (values.size() == 1 && axis.omitted(values.at(0)))
            continue;
        out[axis.specKey] = std::move(values);
    }
    out["requests"] = spec.requests;
    out["drive_capacity_gib"] =
        static_cast<double>(spec.base.capacityBytes()) /
        (1024.0 * 1024.0 * 1024.0);
    return out;
}

Json
configOf(const SweepSpec &spec)
{
    spec.validate();
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
    // An optional axis gets a column when some row moved it off its
    // default, mirroring its omission from the JSON rows.
    std::vector<bool> shown;
    forEachColumn(SimPoint{}, [&](const std::string &, Json, bool omitted) {
        shown.push_back(!omitted);
    });
    for (const auto &r : results) {
        std::size_t c = 0;
        forEachColumn(r.point, [&](const std::string &, Json, bool omitted) {
            shown[c] = shown[c] || !omitted;
            ++c;
        });
    }

    std::ostringstream os;
    // Round-trippable doubles, like the JSON serializer's shortest form.
    os.precision(std::numeric_limits<double>::max_digits10);
    std::size_t c = 0;
    forEachColumn(SimPoint{}, [&](const std::string &column, Json, bool) {
        if (shown[c++])
            os << column << ',';
    });
    os << "avg_read_us,avg_write_us,iops,p999_us,p9999_us,p999999_us,"
          "erases,avg_erase_ms,suspensions,write_amplification\n";
    for (const auto &r : results) {
        c = 0;
        forEachColumn(r.point, [&](const std::string &, Json value, bool) {
            if (shown[c++])
                os << columnText(value) << ',';
        });
        os << r.avgReadUs << ',' << r.avgWriteUs << ',' << r.iops << ','
           << r.p999Us << ',' << r.p9999Us << ',' << r.p999999Us << ','
           << r.erases << ',' << r.avgEraseMs << ',' << r.suspensions
           << ',' << r.writeAmplification << '\n';
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
checkArtifactPath(const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path parent = fs::path(path).parent_path();
    const fs::path dir = parent.empty() ? fs::path(".") : parent;
    if (!fs::is_directory(dir, ec))
        AERO_FATAL("cannot write '", path, "': no directory '",
                   dir.string(), "'");
    if (fs::is_directory(path, ec))
        AERO_FATAL("cannot write '", path, "': it is a directory");
#ifndef _WIN32
    if (::access(dir.c_str(), W_OK) != 0)
        AERO_FATAL("cannot write '", path, "': directory '", dir.string(),
                   "' is not writable");
#endif
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
