/**
 * @file
 * Strict unsigned-number parsing for the command-line tools: the whole
 * value must be a decimal number in the target type's range, so "12x",
 * "abc", "" and overflow are rejected instead of read as a prefix or 0.
 */

#ifndef CSP_TOOLS_CLI_NUMBER_H
#define CSP_TOOLS_CLI_NUMBER_H

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <system_error>

namespace csp::tools {

/** Parse all of @p text into @p out; false (out untouched) otherwise. */
template <typename T>
bool
parseUnsigned(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, out);
    return !text.empty() && error == std::errc() && stop == end;
}

/**
 * For the report readers: parse @p text, the value of @p flag, into
 * @p out, or name the flag on stderr and exit with their usage code 3.
 */
template <typename T>
void
requireUnsigned(const char *tool, const char *flag, const char *text,
                T &out)
{
    if (!parseUnsigned(text, out)) {
        std::cerr << tool << ": " << flag
                  << " wants an unsigned number, got '" << text << "'\n";
        std::exit(3);
    }
}

} // namespace csp::tools

#endif // CSP_TOOLS_CLI_NUMBER_H
