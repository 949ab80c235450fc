/**
 * @file
 * Declared records: every journaled or reported result record lists its
 * columns once, and one generic path derives its JSON encoding
 * (toJson), its decoding (fromJson) and its CSV columns (toCsv, which
 * the sweep reports use for SimResult) from that list.
 *
 * A record type T declares its columns in report order:
 *
 *   static const Fields<T> &fields();
 *
 * built from field() over member pointers, spliced() for a nested
 * record whose columns sit inline in T's row (SimResult::point,
 * ExtendedTraceStats::basic), and SimPoint's axis table (exp/sweep.hh).
 * A member's type picks its JSON value (toColumn/fromColumn):
 *   - a signed integer as an int64, an unsigned one as a uint64;
 *   - double, bool and std::string as themselves;
 *   - an enum by its common/names.hh name;
 *   - std::vector and std::array as arrays, std::pair as a two-element
 *     array (the lifetime curve);
 *   - a record as a nested object.
 *
 * Keys come out in declaration order, and doubles round-trip bit for bit
 * through the JSON serializer, so fromJson(parse(dump(toJson(r))))
 * re-encodes to the same bytes: the property a resumed campaign relies
 * on.
 */

#ifndef AERO_EXP_RECORD_HH
#define AERO_EXP_RECORD_HH

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/names.hh"
#include "exp/json.hh"

namespace aero
{

template <typename T>
struct Field;

template <typename T>
using Fields = std::vector<Field<T>>;

/** A type that declares its columns (see the file comment). */
template <typename T>
concept Record = requires {
    { T::fields() } -> std::same_as<const Fields<T> &>;
};

/** One column of record type T. */
template <typename T>
struct Field
{
    std::string column;
    std::function<Json(const T &)> get;
    /** Inverse of get(). */
    std::function<void(const Json &, T &)> set;
    /**
     * Is the column written for this record? Empty: always, and a row
     * without it does not decode.
     */
    std::function<bool(const T &)> written;
};

template <typename V>
Json toColumn(const V &value);

template <typename V>
V fromColumn(const Json &value, const std::string &column);

/** @p record as a JSON object, its written columns in declared order. */
template <Record T>
Json
toJson(const T &record)
{
    Json row = Json::object();
    for (const Field<T> &f : T::fields()) {
        if (!f.written || f.written(record))
            row[f.column] = f.get(record);
    }
    return row;
}

/**
 * Inverse of toJson(): fatal on a row missing an always-written column,
 * naming it. A conditional column that is absent keeps its member's
 * default.
 */
template <Record T>
T
fromJson(const Json &row)
{
    T record{};
    for (const Field<T> &f : T::fields()) {
        if (const Json *value = row.find(f.column))
            f.set(*value, record);
        else if (!f.written)
            AERO_FATAL("record is missing '", f.column, "'");
    }
    return record;
}

/**
 * Column @p column over @p member. With a flag @p when it is written
 * only when the flag is set, and decoding it sets the flag again.
 */
template <typename T, typename M>
Field<T>
field(const std::string &column, M T::*member, bool T::*when = nullptr)
{
    Field<T> f{column,
               [member](const T &r) { return toColumn(r.*member); },
               [member, when, column](const Json &v, T &r) {
                   r.*member = fromColumn<M>(v, column);
                   if (when)
                       r.*when = true;
               },
               {}};
    if (when)
        f.written = [when](const T &r) { return r.*when; };
    return f;
}

/** The columns of the record at @p member, inline in T's row. */
template <typename T, Record R>
Fields<T>
spliced(R T::*member)
{
    Fields<T> out;
    for (const Field<R> &f : R::fields()) {
        Field<T> g{f.column,
                   [member, get = f.get](const T &r) {
                       return get(r.*member);
                   },
                   [member, set = f.set](const Json &v, T &r) {
                       set(v, r.*member);
                   },
                   {}};
        if (f.written) {
            g.written = [member, written = f.written](const T &r) {
                return written(r.*member);
            };
        }
        out.push_back(std::move(g));
    }
    return out;
}

namespace detail
{

template <typename V>
inline constexpr bool kIsVector = false;
template <typename E>
inline constexpr bool kIsVector<std::vector<E>> = true;

/** std::pair and std::array: a fixed number of elements. */
template <typename V>
concept TupleLike = requires { std::tuple_size<V>::value; };

} // namespace detail

/** A value as its JSON column (see the file comment for the kinds). */
template <typename V>
Json
toColumn(const V &value)
{
    if constexpr (Record<V>) {
        return toJson(value);
    } else if constexpr (std::is_enum_v<V>) {
        return Json{enumName(value)};
    } else if constexpr (detail::TupleLike<V>) {
        Json out = Json::array();
        std::apply([&](const auto &...e) { (out.push(toColumn(e)), ...); },
                   value);
        return out;
    } else if constexpr (detail::kIsVector<V>) {
        Json out = Json::array();
        for (const auto &element : value)
            out.push(toColumn(element));
        return out;
    } else if constexpr (std::is_same_v<V, bool>) {
        return Json{value};
    } else if constexpr (std::is_integral_v<V> && std::is_signed_v<V>) {
        return Json{static_cast<std::int64_t>(value)};
    } else if constexpr (std::is_integral_v<V>) {
        return Json{static_cast<std::uint64_t>(value)};
    } else {
        static_assert(std::is_same_v<V, double> ||
                      std::is_same_v<V, std::string>);
        return Json{value};
    }
}

/**
 * Inverse of toColumn(); fatal, naming @p column, where an array is
 * expected and the value is not one of the declared length (Json's
 * accessors reject the other mismatches).
 */
template <typename V>
V
fromColumn(const Json &value, const std::string &column)
{
    if constexpr (Record<V>) {
        return fromJson<V>(value);
    } else if constexpr (std::is_enum_v<V>) {
        return enumFromName<V>(value.asString());
    } else if constexpr (detail::TupleLike<V>) {
        if (!value.isArray() || value.size() != std::tuple_size_v<V>)
            AERO_FATAL("column '", column, "' is not an array of ",
                       std::tuple_size_v<V>, ": ", value.dump());
        V out{};
        std::size_t i = 0;
        std::apply(
            [&](auto &...e) {
                ((e = fromColumn<std::decay_t<decltype(e)>>(value.at(i++),
                                                             column)),
                 ...);
            },
            out);
        return out;
    } else if constexpr (detail::kIsVector<V>) {
        if (!value.isArray())
            AERO_FATAL("column '", column, "' is not an array: ",
                       value.dump());
        V out(value.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = fromColumn<typename V::value_type>(value.at(i), column);
        return out;
    } else if constexpr (std::is_same_v<V, bool>) {
        return value.asBool();
    } else if constexpr (std::is_integral_v<V> && std::is_signed_v<V>) {
        return static_cast<V>(value.asInt64());
    } else if constexpr (std::is_integral_v<V>) {
        return static_cast<V>(value.asUint64());
    } else if constexpr (std::is_same_v<V, double>) {
        return value.asDouble();
    } else {
        static_assert(std::is_same_v<V, std::string>);
        return value.asString();
    }
}

/**
 * A column value as CSV cells and run_sweep --help print it: strings
 * bare, doubles at max_digits10 so they round-trip, integers exactly.
 */
std::string columnText(const Json &value);

/**
 * @p records as CSV: a header, then one line per record, every cell as
 * columnText() prints it. A conditional column appears when some record
 * writes it (an optional sweep axis off its default), mirroring its
 * omission from the JSON rows.
 */
template <Record T>
std::string
toCsv(const std::vector<T> &records)
{
    std::vector<const Field<T> *> shown;
    for (const Field<T> &f : T::fields()) {
        if (!f.written ||
            std::any_of(records.begin(), records.end(), f.written))
            shown.push_back(&f);
    }
    std::string out;
    const auto line = [&](const auto &cell) {
        for (const Field<T> *f : shown) {
            if (f != shown.front())
                out += ',';
            out += cell(*f);
        }
        out += '\n';
    };
    line([](const Field<T> &f) { return f.column; });
    for (const T &r : records)
        line([&](const Field<T> &f) { return columnText(f.get(r)); });
    return out;
}

} // namespace aero

#endif // AERO_EXP_RECORD_HH
