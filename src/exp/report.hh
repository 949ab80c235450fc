/**
 * @file
 * Machine-readable experiment reports.
 *
 * Serializers that turn a SweepSpec and its SimResult rows into a JSON
 * document (see exp/json.hh for the value type; the rows and their CSV
 * table come from the declared records of exp/record.hh), plus the file
 * I/O helpers every artifact producer/consumer shares. Every figure
 * bench drops one of these artifacts next to its printf table so plots
 * and regression checks (`aero_diff`) can consume the numbers directly.
 */

#ifndef AERO_EXP_REPORT_HH
#define AERO_EXP_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "devchar/simstudy.hh"
#include "exp/json.hh"
#include "exp/sweep.hh"

namespace aero
{

// A grid point's and a result's rows are toJson(SimPoint) and
// toJson(SimResult), decoded by fromJson<SimResult>() (exp/record.hh):
// the point's columns are the key a journaled sweep records it under
// (SweepRunner::run), so the key and the row cannot disagree on which
// axes identify a point.

/** The declared grid (axes, request count, drive summary fields). */
Json toJson(const SweepSpec &spec);

/**
 * Canonical journal config of a spec: its report JSON (axes, requests,
 * capacity) plus the base drive's configuration summary, so resuming
 * onto a reconfigured drive cannot silently splice stale rows.
 */
Json configOf(const SweepSpec &spec);

/**
 * Full sweep report: {"schema": "aero-sweep/1", "spec": ..,
 * "results": [..]}. Results must be in spec order.
 */
Json sweepReport(const SweepSpec &spec,
                 const std::vector<SimResult> &results);

/**
 * Fail fast on an artifact path that writeTextFile() could not write:
 * fatal unless @p path's directory exists and is writable and @p path
 * is not itself a directory. Creates nothing. Drivers call it while
 * parsing `--json`/`--csv`, before any campaign work.
 */
void checkArtifactPath(const std::string &path);

/** Write a file or die (fatal on I/O failure). */
void writeTextFile(const std::string &path, const std::string &content);

/** dump(2) + trailing newline to @p path; logs the artifact location. */
void writeJsonFile(const std::string &path, const Json &doc);

/** Read a whole file or die (fatal on I/O failure). */
std::string readTextFile(const std::string &path);

/** readTextFile + parse; fatal with line/column on malformed JSON. */
Json readJsonFile(const std::string &path);

} // namespace aero

#endif // AERO_EXP_REPORT_HH
