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

const Fields<SimResult> &
SimResult::fields()
{
    using R = SimResult;
    static const Fields<R> table = [] {
        Fields<R> out = spliced(&R::point);
        out.insert(out.end(),
                   {field("avg_read_us", &R::avgReadUs),
                    field("avg_write_us", &R::avgWriteUs),
                    field("iops", &R::iops),
                    field("p999_us", &R::p999Us),
                    field("p9999_us", &R::p9999Us),
                    field("p999999_us", &R::p999999Us),
                    field("erases", &R::erases),
                    field("avg_erase_ms", &R::avgEraseMs),
                    field("suspensions", &R::suspensions),
                    field("write_amplification", &R::writeAmplification)});
        return out;
    }();
    return table;
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
columnText(const Json &value)
{
    if (value.isString())
        return value.asString();
    if (value.isIntegral())
        return value.dump();
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << value.asDouble();
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
