/**
 * @file
 * Report diffing: the engine behind the `aero_diff` regression gate.
 *
 * Compares two JSON report files (`aero-sweep/1`, `aero-devchar/1`,
 * or any document following the same shape) row by row. Rows in the
 * top-level "results" array are matched by their *axis key* — the tuple
 * of values under the keys listed in the document's "axes" array (an
 * `aero-sweep/1` report, which predates the "axes" field, is keyed by
 * the sweep's key columns from the axis table in exp/sweep.hh) — so
 * reordering rows is not a difference, while a row present on only one
 * side is. The "axes" declaration is part of the schema: a report that
 * drops, adds or changes it (after `ignoreKeys` entries are dropped)
 * differs.
 *
 * Metric comparison rules:
 *  - exact 64-bit integers compare exactly, regardless of tolerances;
 *  - floating-point values compare within `--abs-tol` / `--rel-tol`
 *    (a delta exactly at a tolerance passes);
 *  - NaN equals NaN and same-signed infinities are equal (a regenerated
 *    artifact reproducing the same non-finite value is not a regression);
 *  - null equals null (the serializer's spelling of NaN/inf — see
 *    exp/json.hh), and anything else against null is a mismatch;
 *  - keys named by `ignoreKeys` (timestamps, host names, ...) are
 *    skipped everywhere in both documents.
 *
 * Everything outside "results" ("spec", "summary", extra fields) is
 * compared too: "summary" members with the numeric tolerance rules,
 * the rest exactly.
 */

#ifndef AERO_EXP_DIFF_HH
#define AERO_EXP_DIFF_HH

#include <cstddef>
#include <string>
#include <vector>

#include "exp/json.hh"

namespace aero
{

struct DiffOptions
{
    /** Relative tolerance for floating-point metrics (vs max |a|,|b|). */
    double relTol = 0.0;
    /** Absolute tolerance for floating-point metrics. */
    double absTol = 0.0;
    /** Keys excluded from comparison at every level of both documents. */
    std::vector<std::string> ignoreKeys;
};

/** One observed difference. */
struct DiffEntry
{
    std::string row;     //!< rendered axis key; "" for document level
    std::string metric;  //!< offending key; "" for whole-row entries
    std::string a;       //!< rendered value on side A ("(absent)" if gone)
    std::string b;       //!< rendered value on side B
    double absDelta = 0.0;  //!< |a - b| when both numeric, else 0
    double relDelta = 0.0;  //!< absDelta / max(|a|, |b|), else 0
    std::string what;    //!< schema | row | metric | type | doc
};

struct DiffResult
{
    bool match = true;
    std::size_t rowsA = 0;
    std::size_t rowsB = 0;
    std::size_t rowsCompared = 0;
    std::size_t metricsCompared = 0;
    std::vector<DiffEntry> deltas;

    /**
     * Formatted per-metric delta table (header + one line per entry);
     * at most @p maxEntries rows when non-zero. Empty string on match.
     */
    std::string table(std::size_t maxEntries = 0) const;
};

/**
 * Axis keys identifying a result row: the document's "axes" array when
 * present, every sweep key column (SimPoint::fields()) for
 * `aero-sweep/1`, else empty (rows are then matched by position). A
 * row without an optional axis's column keys it as absent.
 */
std::vector<std::string> reportAxes(const Json &doc);

/** Compare two report documents (see file comment for the rules). */
DiffResult diffReports(const Json &a, const Json &b,
                       const DiffOptions &opts = {});

} // namespace aero

#endif // AERO_EXP_DIFF_HH
