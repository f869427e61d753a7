/**
 * @file
 * Command-line plumbing shared by the tools: strict number flags (see
 * core/parse.h) and the report readers' --report writer.
 */

#ifndef CSP_TOOLS_CLI_H
#define CSP_TOOLS_CLI_H

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "core/content_store.h"
#include "core/parse.h"

namespace csp::tools {

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
