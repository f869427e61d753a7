/** @file Materialise a trace for tests that index its records. */

#ifndef CSP_TESTS_TRACE_UTIL_H
#define CSP_TESTS_TRACE_UTIL_H

#include <vector>

#include "trace/trace.h"

namespace csp::trace {

/** Every record of @p buffer, in order, read through its cursor. */
inline std::vector<TraceRecord>
decodeAll(const TraceBuffer &buffer)
{
    std::vector<TraceRecord> out;
    out.reserve(buffer.size());
    TraceCursor cursor = buffer.cursor();
    while (const TraceRecord *rec = cursor.next())
        out.push_back(*rec);
    return out;
}

} // namespace csp::trace

#endif // CSP_TESTS_TRACE_UTIL_H
