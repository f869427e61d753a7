/** @file Materialise a trace for tests that index its records. */

#ifndef CSP_TESTS_TRACE_UTIL_H
#define CSP_TESTS_TRACE_UTIL_H

#include <algorithm>
#include <cstdint>
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

/**
 * @p buffer's payload as trace format v3 wrote it: the record layout of
 * today with each vaddr as 8 raw little-endian bytes, not a delta
 * varint. Rebuilt from the decoded records, so tests can pin the
 * digests that v3 files, memo-v2 entries and the baselines' manifests
 * carry, and build such files and entries to refuse.
 */
inline std::vector<std::uint8_t>
formatV3Payload(const TraceBuffer &buffer)
{
    std::vector<std::uint8_t> out;
    const auto put = [&out](std::uint64_t value) {
        for (; value >= 0x80; value >>= 7)
            out.push_back(static_cast<std::uint8_t>(value) | 0x80);
        out.push_back(static_cast<std::uint8_t>(value));
    };
    const auto indexIn = [](const auto &dict, const auto &value) {
        return static_cast<std::uint64_t>(
            std::find(dict.begin(), dict.end(), value) - dict.begin());
    };
    for (const TraceRecord &r : decodeAll(buffer)) {
        std::uint8_t header = static_cast<std::uint8_t>(r.kind);
        if (r.kind == InstKind::Branch ? r.taken : r.dep_on_prev_load)
            header |= 0x04;
        if (r.hint.valid())
            header |= 0x08;
        if (r.reg_value != 0)
            header |= 0x10;
        if (r.loaded_value != 0)
            header |= 0x20;
        if (r.repeat != 1)
            header |= 0x40;
        if (r.size != 8)
            header |= 0x80;
        out.push_back(header);
        put(indexIn(buffer.pcDict(), r.pc));
        if (r.size != 8)
            out.push_back(r.size);
        if (r.isMem()) {
            for (unsigned byte = 0; byte < 8; ++byte)
                out.push_back(
                    static_cast<std::uint8_t>(r.vaddr >> (8 * byte)));
        }
        if (r.hint.valid())
            put(indexIn(buffer.hintDict(), r.hint));
        if (r.reg_value != 0)
            put(r.reg_value);
        if (r.loaded_value != 0)
            put(r.loaded_value);
        if (r.repeat != 1)
            put(r.repeat);
    }
    return out;
}

/** @p buffer's content digest as trace format v3 computed it, over
 *  @p payload_hash of formatV3Payload(buffer). */
template <typename PayloadHash>
std::uint64_t
formatV3Digest(const TraceBuffer &buffer, PayloadHash payload_hash)
{
    const std::vector<std::uint8_t> payload = formatV3Payload(buffer);
    return packedTraceDigestPrehashed(
        buffer.size(), buffer.instructions(), payload_hash(payload),
        buffer.pcDict().data(), buffer.pcDict().size(),
        buffer.hintDict().data(), buffer.hintDict().size());
}

} // namespace csp::trace

#endif // CSP_TESTS_TRACE_UTIL_H
