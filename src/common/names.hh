/**
 * @file
 * Name tables for the closed policy enums: the erase scheme, suspension
 * mode, channel arbitration, SLO policy, GC victim policy and wear
 * leveling. Each enum has exactly one table of {name, value} rows, found
 * through a nameTable(E) overload declared next to the enum: one row per
 * enumerator in declaration order carrying its canonical name (the one
 * reports, journal keys and fingerprints write), then any aliases.
 *
 * enumName() and enumFromName() serve every table. Lookup ignores case
 * and '-'/'_' separators ("aero_cons" finds "AERO-CONS"); an unknown or
 * empty name is fatal and lists every canonical name. A new policy is an
 * enumerator, its switch case and one table row.
 */

#ifndef AERO_COMMON_NAMES_HH
#define AERO_COMMON_NAMES_HH

#include <cctype>
#include <span>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace aero
{

template <typename E>
struct NamedValue
{
    const char *name;
    E value;
};

template <typename E>
struct NameTable
{
    const char *what;  //!< what the enum selects, for diagnostics
    std::span<const NamedValue<E>> rows;  //!< canonical rows, then aliases
};

namespace detail
{

/** Lowercase and drop '-'/'_', so "AERO_CONS" matches "AERO-CONS". */
inline std::string
foldName(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        if (c != '-' && c != '_')
            out.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

} // namespace detail

/** Canonical name of @p value ("unknown" outside the table). */
template <typename E>
const char *
enumName(E value)
{
    for (const NamedValue<E> &row : nameTable(value).rows) {
        if (row.value == value)
            return row.name;
    }
    return "unknown";
}

/** Every canonical name of E, comma-separated, in enumerator order. */
template <typename E>
std::string
canonicalNames()
{
    std::string out;
    for (const NamedValue<E> &row : nameTable(E{}).rows) {
        // A canonical row is the one enumName() returns for its value.
        if (enumName(row.value) == row.name)
            out += (out.empty() ? "" : ", ") + std::string(row.name);
    }
    return out;
}

/** The enumerator named @p text (folded); fatal listing the choices. */
template <typename E>
E
enumFromName(std::string_view text)
{
    const NameTable<E> table = nameTable(E{});
    const std::string folded = detail::foldName(text);
    for (const NamedValue<E> &row : table.rows) {
        if (detail::foldName(row.name) == folded)
            return row.value;
    }
    AERO_FATAL("unknown ", table.what, ": '", text,
               "' (valid names: ", canonicalNames<E>(), ")");
}

} // namespace aero

#endif // AERO_COMMON_NAMES_HH
