/**
 * @file
 * Trace records, the recording API used by workload kernels, and the
 * replayable trace buffer consumed by the simulator.
 *
 * A trace is the substitute for gem5's dynamic instruction stream: each
 * record is one (or, for compressed compute bursts, several) retired
 * instruction(s), annotated with everything the context-based prefetcher's
 * feature set (paper Table 1) needs — program counter, address, the
 * compiler hint payload, the value a load returns, a representative
 * register value, branch outcomes, and a load-depends-on-previous-load
 * flag used by the core model to serialise pointer chases.
 *
 * Storage is a compact append-only byte stream, not an array of structs:
 * each record is a 1-byte kind+flag word, a varint index into a
 * per-buffer PC dictionary (workloads use a handful of synthetic code
 * sites), the full 64-bit vaddr for memory operations, and then only the
 * fields the flag word says are present (hint, register value, loaded
 * value, burst length, non-default size). Paper-scale traces shrink from
 * 56 bytes/record (the old AoS layout) to a handful of bytes/record,
 * which is what keeps many-workload parallel sweeps RAM-resident.
 * Decoding is sequential via TraceCursor, which rehydrates records into
 * one reusable TraceRecord slot — the replay hot loop never allocates
 * and only streams the packed bytes.
 *
 * Recording costs what writing the bytes costs: each record is encoded
 * straight into the payload's tail and its PC and hint are looked up in
 * flat open-addressing dictionaries. The payload is hashed once, after
 * recording, by the first contentDigest() call (StreamDigest, at
 * memory speed), and the hash is kept until the next push.
 */

#ifndef CSP_TRACE_TRACE_H
#define CSP_TRACE_TRACE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_map.h"
#include "core/types.h"
#include "hints/hint.h"

namespace csp::trace {

/** Kind of a trace record. */
enum class InstKind : std::uint8_t
{
    Load,
    Store,
    Branch,
    Compute, ///< `repeat` back-to-back non-memory, non-branch instructions
};

/** One trace record; see file comment. */
struct TraceRecord
{
    InstKind kind = InstKind::Compute;
    Addr pc = 0;
    Addr vaddr = 0;              ///< memory operations only
    std::uint32_t repeat = 1;    ///< Compute only: burst length
    std::uint8_t size = 8;       ///< access size in bytes
    bool dep_on_prev_load = false; ///< serialise after the previous load
    bool taken = false;          ///< Branch only
    hints::Hint hint;            ///< compiler hint (memory ops)
    std::uint64_t reg_value = 0; ///< representative register contents
    std::uint64_t loaded_value = 0; ///< value returned by a Load

    bool
    isMem() const
    {
        return kind == InstKind::Load || kind == InstKind::Store;
    }
};

class TraceCursor;

/**
 * A payload's StreamDigest, computed on first use and kept until
 * reset(). Any number of const readers may call get() concurrently:
 * the first one hashes, under a mutex, and the rest wait for its
 * result, so a payload is hashed at most once however many sweep cells
 * ask. reset() and moves are writes: the owner makes them while no
 * reader runs. A move carries a computed hash along.
 */
class PayloadHashMemo
{
  public:
    PayloadHashMemo() = default;
    PayloadHashMemo(PayloadHashMemo &&other) noexcept
    {
        *this = std::move(other);
    }
    PayloadHashMemo &
    operator=(PayloadHashMemo &&other) noexcept
    {
        hash_ = other.hash_;
        valid_.store(other.valid_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        other.reset();
        return *this;
    }

    /** The hash of @p payload, which must be the bytes the memo was
     *  last reset() for. */
    std::uint64_t get(std::span<const std::uint8_t> payload) const;

    /** Forget the hash: the payload changed. */
    void reset() { valid_.store(false, std::memory_order_relaxed); }

  private:
    mutable std::mutex mutex_;
    mutable std::uint64_t hash_ = 0;
    mutable std::atomic<bool> valid_{false};
};

/**
 * Storage for a packed payload: a malloc'd byte array grown by realloc.
 * For a large block realloc remaps the pages rather than copying them
 * into fresh memory, so each payload page is faulted in once instead of
 * once per doubling as with std::vector; and the encoder writes each
 * record straight into reserved tail space. Move-only.
 */
class PackedBytes
{
  public:
    PackedBytes() = default;

    PackedBytes(PackedBytes &&other) noexcept { *this = std::move(other); }
    PackedBytes &operator=(PackedBytes &&other) noexcept;
    PackedBytes(const PackedBytes &) = delete;
    PackedBytes &operator=(const PackedBytes &) = delete;
    ~PackedBytes();

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }

    /** At least @p n writable bytes past the end; commit() what is
     *  written. */
    std::uint8_t *
    tail(std::size_t n)
    {
        if (capacity_ - size_ < n)
            grow(size_ + n);
        return data_ + size_;
    }

    /** Set the end to @p end: inside tail()'s space to append what was
     *  written there, or before the end to truncate. */
    void
    commit(const std::uint8_t *end)
    {
        size_ = static_cast<std::size_t>(end - data_);
    }

    operator std::span<const std::uint8_t>() const
    {
        return {data_, size_};
    }

  private:
    void grow(std::size_t min_capacity);

    std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

/**
 * A recorded, replayable trace. Produced by workloads through Recorder,
 * consumed sequentially through TraceCursor by the simulator.
 *
 * Records are stored packed (see file comment); random access is
 * deliberately not offered. Use cursor() for streaming replay.
 */
class TraceBuffer
{
  public:
    /** Append one record. */
    void push(const TraceRecord &rec);

    /** Number of records (compute bursts count once). */
    std::size_t size() const { return count_; }

    /** Total instructions represented (bursts expanded). */
    std::uint64_t instructions() const { return instructions_; }

    /** Number of memory-access records. */
    std::uint64_t memAccesses() const { return mem_accesses_; }

    bool empty() const { return count_ == 0; }

    /** Streaming decoder positioned at the first record. */
    TraceCursor cursor() const;

    /** Packed payload bytes plus dictionary bytes. */
    std::size_t
    sizeBytes() const
    {
        return bytes_.size() + pc_dict_.size() * sizeof(Addr) +
               hint_dict_.size() * sizeof(hints::Hint);
    }

    /** Average encoded bytes per record. */
    double
    bytesPerRecord() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sizeBytes()) /
                                 static_cast<double>(count_);
    }

    /** Distinct PCs recorded so far (dictionary size). */
    std::size_t pcDictSize() const { return pc_dict_.size(); }

    /** Packed record payload (serialization; see trace_io). */
    std::span<const std::uint8_t> packedBytes() const { return bytes_; }

    /** PC dictionary, index order (serialization; see trace_io). */
    const std::vector<Addr> &pcDict() const { return pc_dict_; }

    /** Hint dictionary, index order (serialization; see trace_io). */
    const std::vector<hints::Hint> &hintDict() const { return hint_dict_; }

    /**
     * Order-sensitive digest over the packed payload and both
     * dictionaries — the trace's content identity for run-provenance
     * manifests. Two buffers holding the same record stream digest
     * identically; any record, PC or hint difference changes it.
     *
     * Equal to packedTraceDigestPrehashed over streamDigest of
     * packedBytes() and the dictionaries. The payload is hashed by the
     * first call after the last push and the hash is kept, so further
     * calls cost only the dictionaries. Safe to call from several
     * threads at once.
     */
    std::uint64_t contentDigest() const;

    /**
     * Test hook: observe every record exactly as handed to push(),
     * before burst folding. The tap is inherited by every TraceBuffer
     * subsequently constructed on the calling thread (cleared with
     * nullptr): workloads build their buffers internally, so this is
     * how the golden encode/decode tests build a reference AoS trace
     * alongside a workload's packed one. One well-predicted null check
     * per push; no cost when unset.
     */
    using PushTap = void (*)(void *user, const TraceRecord &rec);
    static void setThreadPushTap(PushTap tap, void *user);

    TraceBuffer();

  private:
    friend class TraceCursor;

    std::uint32_t pcIndex(Addr pc);
    std::uint32_t hintIndex(const hints::Hint &hint);
    void encode(const TraceRecord &rec, std::uint32_t pc_index,
                std::uint32_t hint_index);

    PackedBytes bytes_;               ///< packed records
    PayloadHashMemo payload_hash_;    ///< streamDigest(bytes_)
    std::vector<Addr> pc_dict_;       ///< PC-dictionary index -> PC
    FlatMap<Addr, std::uint32_t> pc_index_; ///< PC -> index
    // Hints are dictionary-encoded too (workloads use a handful of
    // distinct hints), stored unpacked so the round trip is lossless —
    // Hint::pack() truncates link_offset to the NOP immediate's 13 bits
    // and would corrupt the kNoLinkOffset sentinel on valid hints.
    std::vector<hints::Hint> hint_dict_;
    FlatMap<std::uint64_t, std::uint32_t> hint_index_;
    std::size_t count_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t mem_accesses_ = 0;

    // Trailing-record state so compute bursts from the same site fold
    // into one record. Folding truncates the payload to last_offset_
    // and re-encodes last_rec_ (every field preserved, dictionary
    // indices reused) with the summed burst length. last_rec_ and its
    // indices are kept only while the trailing record is a compute
    // record.
    std::size_t last_offset_ = 0;
    bool last_is_compute_ = false;
    TraceRecord last_rec_;
    std::uint32_t last_pc_index_ = 0;
    std::uint32_t last_hint_index_ = 0;

    PushTap tap_ = nullptr;
    void *tap_user_ = nullptr;
};

/**
 * Content digest over packed trace parts, given the payload's
 * streamDigest. TraceBuffer::contentDigest and the trace-file
 * verification path (trace_io) share this formula; the verifier hashes
 * the payload in windows (StreamDigest), so an mmap'd trace is
 * digest-checked without the whole file ever being resident.
 */
std::uint64_t packedTraceDigestPrehashed(
    std::size_t count, std::uint64_t instructions,
    std::uint64_t payload_hash, const Addr *pcs, std::size_t pc_count,
    const hints::Hint *hints, std::size_t hint_count);

/**
 * Zero-copy sequential decoder over packed trace bytes. next()
 * rehydrates the next record into an internal reusable TraceRecord and
 * returns a pointer to it (valid until the following next() call), or
 * nullptr at end of trace. The cursor never allocates.
 *
 * The cursor reads through raw pointers, not a TraceBuffer, so the
 * same decode loop runs over an in-memory buffer or an mmap'd trace
 * file (MappedTrace in trace_io) — the payload and dictionaries just
 * point into the map.
 */
class TraceCursor
{
  public:
    explicit TraceCursor(const TraceBuffer &buffer)
        : TraceCursor(buffer.bytes_.data(),
                      buffer.bytes_.data() + buffer.bytes_.size(),
                      buffer.pc_dict_.data(), buffer.hint_dict_.data())
    {}

    /** Decode surface over raw packed parts (mmap'd trace files). */
    TraceCursor(const std::uint8_t *begin, const std::uint8_t *end,
                const Addr *pc_dict, const hints::Hint *hint_dict)
        : begin_(begin), pos_(begin), end_(end), pc_dict_(pc_dict),
          hint_dict_(hint_dict)
    {}

    /** Decode the next record; nullptr once the trace is exhausted. */
    const TraceRecord *next();

    /** Rewind to the first record. */
    void reset() { pos_ = begin_; }

    bool done() const { return pos_ == end_; }

    /** Current read position inside the packed payload. Streaming
     *  consumers use it to release already-consumed pages. */
    const std::uint8_t *position() const { return pos_; }

  private:
    const std::uint8_t *begin_;
    const std::uint8_t *pos_;
    const std::uint8_t *end_;
    const Addr *pc_dict_;
    const hints::Hint *hint_dict_;
    TraceRecord rec_;
};

inline TraceCursor
TraceBuffer::cursor() const
{
    return TraceCursor(*this);
}

/**
 * Convenience API the workload kernels call while executing natively.
 * Each method appends one record; `compute` bursts fold into the previous
 * record when possible to keep traces compact.
 */
class Recorder
{
  public:
    /** @param pc_base workload-unique base for synthetic code addresses. */
    explicit Recorder(TraceBuffer &buffer, Addr pc_base)
        : buffer_(buffer), pc_base_(pc_base)
    {}

    /** Synthetic PC for code site @p site. */
    Addr pc(std::uint32_t site) const { return pc_base_ + site * 4; }

    /** Record a load with a compiler hint. */
    void
    load(std::uint32_t site, Addr addr, const hints::Hint &hint,
         std::uint64_t loaded_value = 0, bool dep_on_prev_load = false,
         std::uint64_t reg_value = 0)
    {
        TraceRecord rec;
        rec.kind = InstKind::Load;
        rec.pc = pc(site);
        rec.vaddr = addr;
        rec.hint = hint;
        rec.loaded_value = loaded_value;
        rec.dep_on_prev_load = dep_on_prev_load;
        rec.reg_value = reg_value;
        buffer_.push(rec);
    }

    /** Record a plain (un-hinted) load. */
    void
    load(std::uint32_t site, Addr addr, std::uint64_t loaded_value = 0,
         bool dep_on_prev_load = false, std::uint64_t reg_value = 0)
    {
        load(site, addr, hints::Hint{}, loaded_value, dep_on_prev_load,
             reg_value);
    }

    /** Record a store. */
    void
    store(std::uint32_t site, Addr addr,
          const hints::Hint &hint = hints::Hint{})
    {
        TraceRecord rec;
        rec.kind = InstKind::Store;
        rec.pc = pc(site);
        rec.vaddr = addr;
        rec.hint = hint;
        buffer_.push(rec);
    }

    /** Record a conditional branch outcome. */
    void
    branch(std::uint32_t site, bool taken)
    {
        TraceRecord rec;
        rec.kind = InstKind::Branch;
        rec.pc = pc(site);
        rec.taken = taken;
        buffer_.push(rec);
    }

    /** Record @p count back-to-back compute instructions. */
    void compute(std::uint32_t site, std::uint32_t count = 1);

  private:
    TraceBuffer &buffer_;
    Addr pc_base_;
};

} // namespace csp::trace

#endif // CSP_TRACE_TRACE_H
