#include "exp/diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "common/logging.hh"
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
        // The axes declaration decides how rows pair up, so dropping,
        // adding or changing it is a schema change, entry for entry.
        const Json *xa = a.find("axes");
        const Json *xb = b.find("axes");
        if ((xa || xb) &&
            (!xa || !xb || !(declaredAxes(*xa) == declaredAxes(*xb))))
            addDelta("", "axes", xa, xb, "schema");
    }

    /** An "axes" member without the entries --ignore names. */
    Json
    declaredAxes(const Json &axes) const
    {
        if (!axes.isArray())
            return axes;
        Json out = Json::array();
        for (std::size_t i = 0; i < axes.size(); ++i) {
            const Json &axis = axes.at(i);
            if (!axis.isString() || !isIgnored(opts, axis.asString()))
                out.push(axis);
        }
        return out;
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
        std::vector<std::string> axes = reportAxes(a);
        std::erase_if(axes, [&](const std::string &axis) {
            return isIgnored(opts, axis);
        });
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

/** A sweep row's key columns, in report order. */
std::vector<std::string>
sweepKeyColumns()
{
    std::vector<std::string> out;
    forEachColumn(SimPoint{}, [&](const std::string &column, Json, bool) {
        out.push_back(column);
    });
    return out;
}

} // namespace

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

} // namespace aero
