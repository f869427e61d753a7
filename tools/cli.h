/**
 * @file
 * Command-line plumbing shared by the tools. Number parsing is strict:
 * the whole value must be a number in the target type's range, so
 * "12x", "abc", "" and overflow are rejected instead of read as a
 * prefix or 0. The report readers also share their --report writer.
 */

#ifndef CSP_TOOLS_CLI_H
#define CSP_TOOLS_CLI_H

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "core/content_store.h"

namespace csp::tools {

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

/**
 * For the report readers' --report FILE: write @p text to @p path
 * (parent directories are created), or name the file on stderr and
 * exit with the usage code 3, also when the write itself fails. An
 * empty @p path writes nothing.
 */
inline void
writeReport(const char *tool, const std::string &path,
            const std::string &text)
{
    if (path.empty())
        return;
    const std::string parent =
        std::filesystem::path(path).parent_path().string();
    std::ofstream out;
    if (parent.empty() || ensureDirectories(parent))
        out.open(path);
    out << text;
    out.close();
    if (!out) {
        std::cerr << tool << ": cannot write " << path << "\n";
        std::exit(3);
    }
}

} // namespace csp::tools

#endif // CSP_TOOLS_CLI_H
