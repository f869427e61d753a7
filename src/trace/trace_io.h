/**
 * @file
 * Binary trace serialization: save a generated TraceBuffer to disk and
 * replay it later, so expensive workload generation can be amortised
 * across many simulator runs (the gem5-checkpoint analogue for this
 * trace-driven setup).
 *
 * Format v4 stores the TraceBuffer's packed representation verbatim —
 * a fixed header (magic, version, counts, content digest), the PC and
 * hint dictionaries, then the packed record payload. Saving is a few
 * bulk writes instead of a decode/re-encode pass, and MappedTrace
 * decodes straight out of an mmap of the file: the payload is never
 * copied, so a scale-100M replay streams through the page cache instead
 * of materialising gigabytes. The header's content digest
 * (TraceBuffer::contentDigest formula, over a StreamDigest of the
 * payload) makes every trace file self-verifying: the reader refuses a
 * file whose bytes disagree.
 *
 * The format is versioned; loading a mismatched version fails cleanly.
 * v3 changed only the payload hash inside the content digest (v2's was
 * FNV-1a); v4 changed only what the payload means (vaddrs are delta
 * coded per PC slot, where v3 stored 8 raw bytes; see trace.h). A v3
 * file's digest still verifies over its bytes, so the version check is
 * what refuses v2 and v3 files, before their payload is read.
 */

#ifndef CSP_TRACE_TRACE_IO_H
#define CSP_TRACE_TRACE_IO_H

#include <algorithm>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace csp::trace {

/** Result of a load / map attempt. */
enum class TraceIoStatus
{
    Ok,
    CannotOpen,
    BadMagic,
    BadVersion,
    Truncated,
    BadDigest, ///< stored content digest does not match the bytes
};

/** Human-readable status label. */
const char *traceIoStatusName(TraceIoStatus status);

/** Serialize @p buffer to @p stream. Returns false on write failure. */
bool saveTrace(const TraceBuffer &buffer, std::ostream &stream);

/** Serialize @p buffer to the file at @p path; false if any byte,
 *  the final flush on close included, failed to write. */
bool saveTraceFile(const TraceBuffer &buffer, const std::string &path);

/**
 * A packed trace file mapped read-only into the address space. The
 * record payload is decoded in place — cursor() points a TraceCursor
 * straight at the mapped bytes — so opening a trace costs O(dictionary)
 * copies and page-cache faults, never a payload materialisation.
 *
 * open() verifies the header's content digest by default, hashing the
 * payload in windows and releasing each window's pages as it goes, so
 * even verification leaves peak RSS at the window size. Replay through
 * StreamingTraceSource keeps the same bound.
 */
class MappedTrace
{
  public:
    MappedTrace() = default;
    ~MappedTrace() { close(); }

    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;

    /** Map the trace file at @p path; any failure leaves the object
     *  unmapped. @p verify_digest re-hashes the payload against the
     *  stored content digest (windowed; see class comment). */
    TraceIoStatus open(const std::string &path,
                       bool verify_digest = true);

    /** Unmap; safe to call repeatedly. */
    void close();

    bool mapped() const { return base_ != nullptr; }

    /** Number of records (compute bursts count once). */
    std::size_t size() const { return record_count_; }

    /** Total instructions represented (bursts expanded). */
    std::uint64_t instructions() const { return instructions_; }

    /** Number of memory-access records. */
    std::uint64_t memAccesses() const { return mem_accesses_; }

    /** Content digest from the header (TraceBuffer::contentDigest of
     *  the saved buffer). */
    std::uint64_t contentDigest() const { return content_digest_; }

    /** Packed record payload inside the mapping. */
    const std::uint8_t *payload() const { return payload_; }
    std::size_t payloadBytes() const { return payload_bytes_; }

    /** Streaming decoder over the mapped payload, positioned at the
     *  first record. */
    TraceCursor
    cursor() const
    {
        return TraceCursor(payload_, payload_ + payload_bytes_,
                           pc_dict_.data(), hint_dict_.data());
    }

    /**
     * Tell the kernel the mapping's bytes before @p upto are consumed
     * (MADV_DONTNEED, rounded down to a page). Clean file-backed pages
     * drop from the resident set and refault from the page cache if
     * ever touched again — this is what keeps a forward-only replay's
     * RSS flat regardless of trace size.
     */
    void releaseConsumed(const std::uint8_t *upto) const;

  private:
    void *base_ = nullptr;
    std::size_t map_len_ = 0;
    const std::uint8_t *payload_ = nullptr;
    std::size_t payload_bytes_ = 0;
    // Dictionaries are tiny (a handful of synthetic code sites/hints),
    // so they are copied out of the map: the in-memory layouts differ
    // from the 8-byte on-disk records and the copy sidesteps alignment
    // concerns. The payload — all the volume — stays zero-copy.
    std::vector<Addr> pc_dict_;
    std::vector<hints::Hint> hint_dict_;
    std::size_t record_count_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t mem_accesses_ = 0;
    std::uint64_t content_digest_ = 0;
    mutable std::size_t released_ = 0; ///< DONTNEED high-water mark
};

/**
 * Replay source over a MappedTrace for Simulator::runFrom: decodes via
 * TraceCursor directly from the map and releases consumed pages one
 * window at a time, bounding replay RSS at ~window_bytes independent
 * of trace size. One pointer compare per record when inside a window.
 */
class StreamingTraceSource
{
  public:
    static constexpr std::size_t kDefaultWindowBytes =
        std::size_t{4} << 20;

    explicit StreamingTraceSource(
        const MappedTrace &trace,
        std::size_t window_bytes = kDefaultWindowBytes)
        : trace_(&trace), cursor_(trace.cursor()),
          window_bytes_(window_bytes),
          window_end_(trace.payload() +
                      std::min(window_bytes, trace.payloadBytes()))
    {}

    /** Decode the next record; nullptr once the trace is exhausted. */
    const TraceRecord *
    next()
    {
        if (cursor_.position() >= window_end_) [[unlikely]] {
            trace_->releaseConsumed(cursor_.position());
            window_end_ = cursor_.position() + window_bytes_;
        }
        return cursor_.next();
    }

  private:
    const MappedTrace *trace_;
    TraceCursor cursor_;
    std::size_t window_bytes_;
    const std::uint8_t *window_end_;
};

} // namespace csp::trace

#endif // CSP_TRACE_TRACE_IO_H
