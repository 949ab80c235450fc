#include "exp/diff.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "common/parse.hh"
#include "exp/sweep.hh"

namespace aero
{

namespace
{

bool
isIgnored(const DiffOptions &opts, const std::string &key)
{
    return std::find(opts.ignoreKeys.begin(), opts.ignoreKeys.end(),
                     key) != opts.ignoreKeys.end();
}

/** Render a value for the delta table (via the serializer). */
std::string
render(const Json *v)
{
    return v ? v->dump() : "(absent)";
}

/** The document-level fields handled specially by diffReports(). */
bool
isStructuralKey(const std::string &key)
{
    return key == "schema" || key == "axes" || key == "results" ||
           key == "summary";
}

/** Recursively drop ignored object members so exact compares skip them. */
Json
stripIgnored(const Json &v, const DiffOptions &opts)
{
    if (v.isObject()) {
        Json out = Json::object();
        for (std::size_t i = 0; i < v.size(); ++i) {
            const auto &[key, value] = v.member(i);
            if (!isIgnored(opts, key))
                out[key] = stripIgnored(value, opts);
        }
        return out;
    }
    if (v.isArray()) {
        Json out = Json::array();
        for (std::size_t i = 0; i < v.size(); ++i)
            out.push(stripIgnored(v.at(i), opts));
        return out;
    }
    return v;
}

/**
 * Tolerant numeric equality. Exact integers compare exactly; once a
 * double is involved the |a-b| <= absTol / relTol * max(|a|,|b|) rules
 * apply. NaN==NaN and same-signed infinities are equal by design (see
 * diff.hh).
 */
bool
numbersMatch(const Json &a, const Json &b, const DiffOptions &opts,
             double *absDelta, double *relDelta)
{
    *absDelta = 0.0;
    *relDelta = 0.0;
    if (a.isIntegral() && b.isIntegral()) {
        if (a == b)
            return true;
        const double delta = std::fabs(a.asDouble() - b.asDouble());
        const double scale =
            std::max(std::fabs(a.asDouble()), std::fabs(b.asDouble()));
        *absDelta = delta;
        *relDelta = scale > 0.0 ? delta / scale : 0.0;
        return false;
    }
    const double x = a.asDouble();
    const double y = b.asDouble();
    const bool xNan = std::isnan(x), yNan = std::isnan(y);
    if (xNan || yNan)
        return xNan && yNan;
    if (std::isinf(x) || std::isinf(y)) {
        if (x == y)
            return true;
        *absDelta = std::numeric_limits<double>::infinity();
        *relDelta = std::numeric_limits<double>::infinity();
        return false;
    }
    const double delta = std::fabs(x - y);
    const double scale = std::max(std::fabs(x), std::fabs(y));
    *absDelta = delta;
    *relDelta = scale > 0.0 ? delta / scale : 0.0;
    if (delta <= opts.absTol)
        return true;
    return scale > 0.0 && delta <= opts.relTol * scale;
}

class Differ
{
  public:
    Differ(const Json &docA, const Json &docB, const DiffOptions &opts)
        : a(docA), b(docB), opts(opts)
    {
    }

    DiffResult
    run()
    {
        compareSchema();
        compareResults();
        compareSummary();
        compareRemainingDocKeys();
        result.match = result.deltas.empty();
        return std::move(result);
    }

  private:
    const Json &a;
    const Json &b;
    const DiffOptions &opts;
    DiffResult result;

    void
    addDelta(std::string row, std::string metric, const Json *va,
             const Json *vb, std::string what, double absDelta = 0.0,
             double relDelta = 0.0)
    {
        DiffEntry e;
        e.row = std::move(row);
        e.metric = std::move(metric);
        e.a = render(va);
        e.b = render(vb);
        e.absDelta = absDelta;
        e.relDelta = relDelta;
        e.what = std::move(what);
        result.deltas.push_back(std::move(e));
    }

    void
    compareSchema()
    {
        const Json *sa = a.find("schema");
        const Json *sb = b.find("schema");
        if (!sa || !sb || !(*sa == *sb))
            addDelta("", "schema", sa, sb, "schema");
    }

    std::string
    rowKey(const Json &row, const std::vector<std::string> &axes) const
    {
        std::string key;
        for (const auto &axis : axes) {
            if (!key.empty())
                key += ' ';
            key += axis;
            key += '=';
            const Json *v = row.find(axis);
            key += v ? v->dump() : "-";
        }
        return key;
    }

    void
    compareResults()
    {
        const Json *ra = a.find("results");
        const Json *rb = b.find("results");
        if (!ra || !rb || !ra->isArray() || !rb->isArray()) {
            // Absent on both sides is fine (a summary-only document);
            // anything else — absent on one side, or present but not
            // an array — is structural breakage, never a match.
            if (ra || rb)
                addDelta("", "results", ra, rb, "doc");
            return;
        }
        result.rowsA = ra->size();
        result.rowsB = rb->size();

        // --ignore applies to axis keys too: drop them from the row
        // identity so rows differing only in an ignored axis pair up.
        const auto keyAxes = [&](const Json &doc) {
            std::vector<std::string> axes = reportAxes(doc);
            std::erase_if(axes, [&](const std::string &axis) {
                return isIgnored(opts, axis);
            });
            return axes;
        };
        const std::vector<std::string> axes = keyAxes(a);
        if (axes.empty()) {
            // No axis declaration: match rows by position.
            const std::size_t n = std::min(ra->size(), rb->size());
            for (std::size_t i = 0; i < n; ++i) {
                compareRow(detail::concat("row #", i), ra->at(i),
                           rb->at(i), axes);
            }
            for (std::size_t i = n; i < ra->size(); ++i)
                addDelta(detail::concat("row #", i), "", &ra->at(i),
                         nullptr, "row");
            for (std::size_t i = n; i < rb->size(); ++i)
                addDelta(detail::concat("row #", i), "", nullptr,
                         &rb->at(i), "row");
            return;
        }
        if (const auto axesB = keyAxes(b); !axesB.empty() && axesB != axes)
            addDelta("", "axes", a.find("axes"), b.find("axes"), "schema");

        // Index side B by axis key; duplicate keys are themselves a
        // defect (the key no longer identifies a row).
        std::map<std::string, const Json *> byKeyB;
        for (std::size_t i = 0; i < rb->size(); ++i) {
            const Json &row = rb->at(i);
            const std::string key = rowKey(row, axes);
            if (!byKeyB.emplace(key, &row).second)
                addDelta(key, "", nullptr, &row, "row");
        }
        std::map<std::string, const Json *> seenA;
        for (std::size_t i = 0; i < ra->size(); ++i) {
            const Json &row = ra->at(i);
            const std::string key = rowKey(row, axes);
            if (!seenA.emplace(key, &row).second) {
                addDelta(key, "", &row, nullptr, "row");
                continue;
            }
            const auto it = byKeyB.find(key);
            if (it == byKeyB.end()) {
                addDelta(key, "", &row, nullptr, "row");
                continue;
            }
            compareRow(key, row, *it->second, axes);
        }
        for (const auto &[key, row] : byKeyB) {
            if (!seenA.count(key))
                addDelta(key, "", nullptr, row, "row");
        }
    }

    void
    compareRow(const std::string &key, const Json &rowA, const Json &rowB,
               const std::vector<std::string> &axes)
    {
        // Rows must be flat objects; anything else is structural
        // breakage reported as a row delta, never a crash.
        if (!rowA.isObject() || !rowB.isObject()) {
            addDelta(key, "", &rowA, &rowB, "row");
            return;
        }
        result.rowsCompared += 1;
        // Union of metric keys, side-A order first so the delta table
        // follows the artifact's column order.
        std::vector<std::string> metrics;
        const auto collect = [&](const Json &row) {
            for (std::size_t i = 0; i < row.size(); ++i) {
                const std::string &name = row.member(i).first;
                if (isIgnored(opts, name))
                    continue;
                if (std::find(axes.begin(), axes.end(), name) !=
                    axes.end())
                    continue;
                if (std::find(metrics.begin(), metrics.end(), name) ==
                    metrics.end())
                    metrics.push_back(name);
            }
        };
        collect(rowA);
        collect(rowB);
        for (const auto &metric : metrics)
            compareMetric(key, metric, rowA.find(metric),
                          rowB.find(metric));
    }

    void
    compareMetric(const std::string &row, const std::string &metric,
                  const Json *va, const Json *vb)
    {
        result.metricsCompared += 1;
        if (!va || !vb) {
            addDelta(row, metric, va, vb, "metric");
            return;
        }
        if (va->isNumeric() && vb->isNumeric()) {
            double absDelta, relDelta;
            if (!numbersMatch(*va, *vb, opts, &absDelta, &relDelta))
                addDelta(row, metric, va, vb, "metric", absDelta,
                         relDelta);
            return;
        }
        if (va->type() != vb->type()) {
            addDelta(row, metric, va, vb, "type");
            return;
        }
        if (va->isObject() || va->isArray()) {
            if (!(stripIgnored(*va, opts) == stripIgnored(*vb, opts)))
                addDelta(row, metric, va, vb, "metric");
            return;
        }
        if (!(*va == *vb))
            addDelta(row, metric, va, vb, "metric");
    }

    void
    compareSummary()
    {
        const Json *sa = a.find("summary");
        const Json *sb = b.find("summary");
        if (!sa && !sb)
            return;
        if (!sa || !sb || !sa->isObject() || !sb->isObject()) {
            addDelta("summary", "", sa, sb, "doc");
            return;
        }
        compareRow("summary", *sa, *sb, {});
        result.rowsCompared -= 1;  // the summary is not a result row
    }

    void
    compareRemainingDocKeys()
    {
        std::vector<std::string> keys;
        const auto collect = [&](const Json &doc) {
            for (std::size_t i = 0; i < doc.size(); ++i) {
                const std::string &name = doc.member(i).first;
                if (isStructuralKey(name) || isIgnored(opts, name))
                    continue;
                if (std::find(keys.begin(), keys.end(), name) ==
                    keys.end())
                    keys.push_back(name);
            }
        };
        collect(a);
        collect(b);
        for (const auto &key : keys) {
            const Json *va = a.find(key);
            const Json *vb = b.find(key);
            if (!va || !vb) {
                addDelta("", key, va, vb, "doc");
                continue;
            }
            if (!(stripIgnored(*va, opts) == stripIgnored(*vb, opts)))
                addDelta("", key, va, vb, "doc");
        }
    }
};

std::string
formatDelta(double v)
{
    if (v == 0.0)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return buf;
}

} // namespace

namespace
{

/**
 * Split one CSV document into rows of cells, honouring RFC 4180
 * quoting: a quoted cell may contain commas, doubled quotes, and
 * newlines. CRLF and LF line ends are both accepted; a trailing
 * newline does not produce an empty final row. Returns false and
 * fills @p error on a malformed document.
 */
bool
parseCsv(const std::string &text,
         std::vector<std::vector<std::string>> *outRows,
         std::string *error)
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string cell;
    bool quoted = false;
    bool cellStarted = false;
    const auto endCell = [&] {
        row.push_back(std::move(cell));
        cell.clear();
        cellStarted = false;
    };
    const auto endRow = [&] {
        endCell();
        rows.push_back(std::move(row));
        row.clear();
    };
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    cell += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cell += c;
            }
            continue;
        }
        if (c == '"' && !cellStarted && cell.empty()) {
            quoted = true;
            cellStarted = true;
        } else if (c == ',') {
            endCell();
            cellStarted = false;
        } else if (c == '\n') {
            if (!cell.empty() && cell.back() == '\r')
                cell.pop_back();
            endRow();
        } else {
            cell += c;
            cellStarted = true;
        }
    }
    if (quoted) {
        *error = "CSV artifact ends inside a quoted cell";
        return false;
    }
    if (cellStarted || !cell.empty() || !row.empty())
        endRow();
    *outRows = std::move(rows);
    return true;
}

/**
 * Type a CSV cell the way the serializers wrote it: integers exactly
 * (so the diff's exact-integer rule applies), other numbers as double,
 * the empty cell as null, everything else as a string. False (with
 * @p error set) only for an integer cell that overflows 64 bits —
 * silently degrading it to a lossy double would let a corrupted count
 * "pass" the exact-integer comparison.
 */
bool
typedCell(const std::string &cell, Json *out, std::string *error)
{
    if (cell.empty()) {
        *out = Json{};
        return true;
    }
    // Only an optionally '-'-signed run of digits is an integer cell:
    // " -1" must not wrap to 18446744073709551615 and pass exact
    // integer comparison.
    const bool negative = cell[0] == '-';
    const std::string_view digits =
        std::string_view(cell).substr(negative ? 1 : 0);
    if (!digits.empty() &&
        std::all_of(digits.begin(), digits.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c));
        })) {
        const auto magnitude = parseDecimal<std::uint64_t>(digits);
        if (!magnitude || (negative && *magnitude > (1ULL << 63))) {
            *error = negative
                ? "integer cell overflows a signed 64-bit value"
                : "integer cell overflows an unsigned 64-bit value";
            return false;
        }
        *out = negative ? Json{static_cast<std::int64_t>(0 - *magnitude)}
                        : Json{*magnitude};
        return true;
    }
    char *end = nullptr;
    errno = 0;
    const double d = std::strtod(cell.c_str(), &end);
    if (end && *end == '\0' && errno != ERANGE) {
        *out = Json{d};
        return true;
    }
    *out = Json{cell};
    return true;
}

/**
 * A sweep row's key columns in report order; with @p requiredOnly, just
 * those every row carries (the optional axes are absent at default).
 */
std::vector<std::string>
sweepKeyColumns(bool requiredOnly = false)
{
    std::vector<std::string> out;
    forEachColumn(SimPoint{},
                  [&](const std::string &column, Json, bool omitted) {
                      if (!requiredOnly || !omitted)
                          out.push_back(column);
                  });
    return out;
}

} // namespace

bool
csvToReport(const std::string &text, Json *out, std::string *error)
{
    std::vector<std::vector<std::string>> rows;
    if (!parseCsv(text, &rows, error))
        return false;
    if (rows.empty()) {
        *error = "CSV artifact is empty (no header row)";
        return false;
    }
    const auto &header = rows.front();

    Json doc = Json::object();
    doc["schema"] = "aero-csv/1";
    // A header with every column a sweep row always carries is a sweep
    // CSV: rows match by the sweep's key columns (reordering is not a
    // difference). Otherwise rows match by position.
    const std::vector<std::string> required = sweepKeyColumns(true);
    const bool sweepShaped = std::all_of(
        required.begin(), required.end(), [&](const std::string &column) {
            return std::find(header.begin(), header.end(), column) !=
                   header.end();
        });
    if (sweepShaped) {
        Json axes = Json::array();
        for (const auto &column : sweepKeyColumns())
            axes.push(column);
        doc["axes"] = std::move(axes);
    }

    Json results = Json::array();
    for (std::size_t r = 1; r < rows.size(); ++r) {
        if (rows[r].size() != header.size()) {
            *error = detail::concat("CSV artifact row ", r + 1,
                                    " has ", rows[r].size(),
                                    " cells, header has ",
                                    header.size());
            return false;
        }
        Json row = Json::object();
        for (std::size_t c = 0; c < header.size(); ++c) {
            Json value;
            std::string cellError;
            if (!typedCell(rows[r][c], &value, &cellError)) {
                *error = detail::concat(
                    "CSV artifact row ", r + 1, ", column ", c + 1,
                    " ('", header[c], "'): ", cellError, ": '",
                    rows[r][c], "'");
                return false;
            }
            row[header[c]] = std::move(value);
        }
        results.push(std::move(row));
    }
    doc["results"] = std::move(results);
    *out = std::move(doc);
    return true;
}

Json
csvToReport(const std::string &text)
{
    Json doc;
    std::string error;
    if (!csvToReport(text, &doc, &error))
        AERO_FATAL(error);
    return doc;
}

std::vector<std::string>
reportAxes(const Json &doc)
{
    if (const Json *axes = doc.find("axes");
        axes && axes->isArray()) {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < axes->size(); ++i) {
            // Tolerate malformed entries (a diff tool must not crash
            // on the artifact it is diagnosing); non-strings cannot
            // name a key, so they are skipped.
            if (axes->at(i).isString())
                out.push_back(axes->at(i).asString());
        }
        return out;
    }
    if (const Json *schema = doc.find("schema");
        schema && schema->isString() &&
        schema->asString() == "aero-sweep/1") {
        return sweepKeyColumns();
    }
    return {};
}

DiffResult
diffReports(const Json &a, const Json &b, const DiffOptions &opts)
{
    return Differ(a, b, opts).run();
}

std::string
DiffResult::table(std::size_t maxEntries) const
{
    if (deltas.empty())
        return "";
    // Long cells (a whole missing row dumped into one column) are
    // clipped so every table line stays intact and newline-terminated.
    constexpr std::size_t kMaxCell = 48;
    const auto clip = [](const std::string &s) {
        if (s.size() <= kMaxCell)
            return s;
        return s.substr(0, kMaxCell - 3) + "...";
    };
    const std::size_t n = maxEntries == 0
        ? deltas.size()
        : std::min(maxEntries, deltas.size());
    // Column widths over the (clipped) printed subset.
    std::size_t wRow = 3, wMetric = 6, wA = 1, wB = 1;
    for (std::size_t i = 0; i < n; ++i) {
        wRow = std::max(wRow,
                        std::min(deltas[i].row.size(), kMaxCell));
        wMetric = std::max(wMetric,
                           std::min(deltas[i].metric.size(), kMaxCell));
        wA = std::max(wA, std::min(deltas[i].a.size(), kMaxCell));
        wB = std::max(wB, std::min(deltas[i].b.size(), kMaxCell));
    }
    const auto pad = [](const std::string &s, std::size_t w) {
        return s + std::string(w > s.size() ? w - s.size() : 0, ' ');
    };
    const auto padLeft = [](const std::string &s, std::size_t w) {
        return std::string(w > s.size() ? w - s.size() : 0, ' ') + s;
    };
    const auto formatLine = [&](const std::string &kind,
                                const std::string &row,
                                const std::string &metric,
                                const std::string &va,
                                const std::string &vb,
                                const std::string &absd,
                                const std::string &reld) {
        return pad(kind, 6) + " | " + pad(row, wRow) + " | " +
               pad(metric, wMetric) + " | " + pad(va, wA) + " | " +
               pad(vb, wB) + " | " + padLeft(absd, 9) + " | " +
               padLeft(reld, 9) + "\n";
    };
    std::string out = formatLine("kind", "row", "metric", "a", "b",
                                 "abs-delta", "rel-delta");
    out += std::string(out.size() - 1, '-') + "\n";
    for (std::size_t i = 0; i < n; ++i) {
        const DiffEntry &e = deltas[i];
        out += formatLine(e.what, clip(e.row), clip(e.metric),
                          clip(e.a), clip(e.b),
                          formatDelta(e.absDelta),
                          formatDelta(e.relDelta));
    }
    if (n < deltas.size())
        out += detail::concat("... and ", deltas.size() - n,
                              " more\n");
    return out;
}

namespace
{

/** Is @p name a report artifact (.json / .csv, case-sensitive)? */
bool
isReportFile(const std::filesystem::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".json" || ext == ".csv";
}

/**
 * Directory-relative paths of every report artifact under @p dir,
 * sorted (generic '/' separators so A and B pair on any platform).
 */
std::vector<std::string>
collectReportFiles(const std::filesystem::path &dir)
{
    std::vector<std::string> names;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file() || !isReportFile(entry.path()))
            continue;
        names.push_back(
            entry.path().lexically_relative(dir).generic_string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

/** Read + parse one artifact; false (with @p error) on any failure. */
bool
loadReportFile(const std::filesystem::path &path, Json *out,
               std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *error = detail::concat("cannot open '", path.string(), "'");
        return false;
    }
    std::ostringstream content;
    content << in.rdbuf();
    if (in.bad()) {
        *error = detail::concat("failed reading '", path.string(), "'");
        return false;
    }
    if (path.extension() == ".csv") {
        std::string csvError;
        if (!csvToReport(content.str(), out, &csvError)) {
            *error = detail::concat(path.string(), ": ", csvError);
            return false;
        }
        return true;
    }
    Json::ParseError err;
    if (!Json::parse(content.str(), out, &err)) {
        *error =
            detail::concat(path.string(), ": ", err.toString());
        return false;
    }
    return true;
}

} // namespace

DirDiffResult
diffReportDirs(const std::string &dirA, const std::string &dirB,
               const DiffOptions &opts)
{
    const std::filesystem::path a(dirA), b(dirB);
    for (const auto &dir : {a, b}) {
        if (!std::filesystem::is_directory(dir))
            AERO_FATAL("'", dir.string(), "' is not a directory");
    }
    const auto filesA = collectReportFiles(a);
    const auto filesB = collectReportFiles(b);

    DirDiffResult result;
    // Both lists are sorted: a single merge walk pairs files by name
    // and classifies the one-sided leftovers.
    std::size_t ia = 0, ib = 0;
    while (ia < filesA.size() || ib < filesB.size()) {
        if (ib >= filesB.size() ||
            (ia < filesA.size() && filesA[ia] < filesB[ib])) {
            result.onlyA.push_back(filesA[ia++]);
            continue;
        }
        if (ia >= filesA.size() || filesB[ib] < filesA[ia]) {
            result.onlyB.push_back(filesB[ib++]);
            continue;
        }
        DirDiffFile file;
        file.name = filesA[ia];
        Json docA, docB;
        std::string error;
        if (!loadReportFile(a / filesA[ia], &docA, &error) ||
            !loadReportFile(b / filesB[ib], &docB, &error)) {
            file.error = error;
            result.anyError = true;
        } else {
            file.loaded = true;
            file.diff = diffReports(docA, docB, opts);
            if (file.diff.match)
                result.matched += 1;
        }
        result.compared.push_back(std::move(file));
        ia += 1;
        ib += 1;
    }
    return result;
}

} // namespace aero
