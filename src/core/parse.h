/**
 * @file
 * Strict number parsing for command-line flags and environment knobs:
 * the whole value must be a number in the target type's range, so
 * "12x", "abc", "-1", "" and overflow are rejected instead of read as a
 * prefix, wrapped, or taken as 0.
 */

#ifndef CSP_CORE_PARSE_H
#define CSP_CORE_PARSE_H

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace csp {

/** Parse all of @p text into @p out; false (out untouched) otherwise.
 *  A floating-point @p out also refuses negative, infinite and NaN. */
template <typename T>
bool
parseUnsigned(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    T value{};
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (text.empty() || error != std::errc() || stop != end)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value) || value < 0)
            return false;
    }
    out = value;
    return true;
}

} // namespace csp

#endif // CSP_CORE_PARSE_H
