/**
 * @file
 * Strict integer parsing for flags and environment values. Unlike the
 * strtoul family it rejects leading whitespace and signs (strtoull wraps
 * "-1" to 2^64-1) and checks the range of the target type.
 */

#ifndef AERO_COMMON_PARSE_HH
#define AERO_COMMON_PARSE_HH

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"

namespace aero
{

/** @p text as a T; nullopt unless it is bare digits in T's range. */
template <typename T>
std::optional<T>
parseDecimal(std::string_view text)
{
    static_assert(std::is_integral_v<T>);
    if (text.empty() || text.front() < '0' || text.front() > '9')
        return std::nullopt;
    T value{};
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc{} || end != last)
        return std::nullopt;
    return value;
}

/** parseDecimal(), fatal naming @p what (a flag) on malformed @p text. */
template <typename T>
T
parseDecimalOrDie(const std::string &what, const std::string &text)
{
    const auto v = parseDecimal<T>(text);
    if (!v) {
        AERO_FATAL(what, ": '", text, "' is not an integer in [0, ",
                   std::numeric_limits<T>::max(), "]");
    }
    return *v;
}

} // namespace aero

#endif // AERO_COMMON_PARSE_HH
