/**
 * @file
 * Filesystem primitives for the content-addressed stores (the
 * `results/cache/` result cache and `traces/cache/` trace memo):
 * recursive directory creation, whole-file reads, and atomic writes.
 *
 * Atomicity matters because concurrent cspsim processes may share one
 * cache directory and store the same digest at once, and because a
 * crash mid-write must not leave a torn entry: every write goes to a
 * unique temp file in the destination directory and is renamed into
 * place, so readers only ever observe complete entries and concurrent
 * writers race benignly (the entries are content-addressed — both
 * writers produce identical bytes, and the last rename wins).
 */

#ifndef CSP_CORE_CONTENT_STORE_H
#define CSP_CORE_CONTENT_STORE_H

#include <string>
#include <string_view>

namespace csp {

/** Create @p dir and any missing parents; true when it exists after. */
bool ensureDirectories(const std::string &dir);

/** Read the whole file at @p path; false if unreadable. */
bool readFileToString(const std::string &path, std::string &out);

/**
 * Atomically publish @p bytes at @p path (unique temp file + rename),
 * creating parent directories as needed. Returns false on any
 * filesystem error, leaving no temp file behind.
 */
bool atomicWriteFile(const std::string &path, std::string_view bytes);

} // namespace csp

#endif // CSP_CORE_CONTENT_STORE_H
