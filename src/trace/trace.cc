#include "trace/trace.h"

#include <cstdlib>
#include <new>
#include <utility>

#include "core/hashing.h"

namespace csp::trace {

namespace {

// Header-byte layout. Bits [1:0] hold the InstKind; the rest are
// presence/flag bits that let the encoder omit default-valued fields.
constexpr std::uint8_t kKindMask = 0x03;
constexpr std::uint8_t kFlagA = 0x04; ///< taken (Branch) / dep_on_prev_load
constexpr std::uint8_t kHasHint = 0x08;
constexpr std::uint8_t kHasReg = 0x10;
constexpr std::uint8_t kHasLoaded = 0x20;
constexpr std::uint8_t kHasRepeat = 0x40; ///< repeat != 1
constexpr std::uint8_t kHasSize = 0x80;   ///< size != 8

/** Longest encoded record: header, six varints at their widest (PC
 *  and hint indices and the burst length are 32-bit; the vaddr delta,
 *  register and loaded values 64-bit) and the size byte. */
constexpr std::size_t kMaxRecordBytes = 1 + 5 + 1 + 10 + 5 + 10 + 10 + 5;

/** Map a signed delta onto small unsigned values: 0, -1, 1, -2, ... →
 *  0, 1, 2, 3, ... — so a vaddr a few bytes either side of the last
 *  one takes one varint byte. Wraps modulo 2^64 like the delta. */
std::uint64_t
zigzag(std::uint64_t delta)
{
    return (delta << 1) ^ (0 - (delta >> 63));
}

std::uint64_t
unzigzag(std::uint64_t code)
{
    return (code >> 1) ^ (0 - (code & 1));
}

/** Writes one record's bytes into reserved payload space. */
struct RecordWriter
{
    std::uint8_t *out;

    void put(std::uint8_t byte) { *out++ = byte; }

    void
    putVarint(std::uint64_t value)
    {
        if (value < 0x80) [[likely]] {
            put(static_cast<std::uint8_t>(value));
            return;
        }
        do {
            put(static_cast<std::uint8_t>(value) | 0x80);
            value >>= 7;
        } while (value >= 0x80);
        put(static_cast<std::uint8_t>(value));
    }
};

std::uint64_t
readVarint(const std::uint8_t *&pos)
{
    // Most fields and most vaddr deltas take one byte: keep that case
    // out of the loop, where the branch predictor sees it on its own.
    std::uint64_t byte = *pos++;
    if (byte < 0x80) [[likely]]
        return byte;
    std::uint64_t value = byte & 0x7f;
    for (unsigned shift = 7;; shift += 7) {
        byte = *pos++;
        value |= (byte & 0x7f) << shift;
        if (byte < 0x80)
            return value;
    }
}

std::uint64_t
hintKey(const hints::Hint &hint)
{
    return static_cast<std::uint64_t>(hint.type_id) |
           (static_cast<std::uint64_t>(hint.link_offset) << 16) |
           (static_cast<std::uint64_t>(hint.ref_form) << 32);
}

thread_local TraceBuffer::PushTap t_default_tap = nullptr;
thread_local void *t_default_tap_user = nullptr;

} // namespace

PackedBytes &
PackedBytes::operator=(PackedBytes &&other) noexcept
{
    if (this != &other) {
        std::free(data_);
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
}

PackedBytes::~PackedBytes()
{
    std::free(data_);
}

void
PackedBytes::grow(std::size_t min_capacity)
{
    std::size_t capacity = capacity_ == 0 ? 4096 : 2 * capacity_;
    if (capacity < min_capacity)
        capacity = min_capacity;
    void *data = std::realloc(data_, capacity);
    if (data == nullptr)
        throw std::bad_alloc();
    data_ = static_cast<std::uint8_t *>(data);
    capacity_ = capacity;
}

TraceBuffer::TraceBuffer()
    : tap_(t_default_tap), tap_user_(t_default_tap_user)
{}

void
TraceBuffer::setThreadPushTap(PushTap tap, void *user)
{
    t_default_tap = tap;
    t_default_tap_user = user;
}

inline std::uint32_t
TraceBuffer::pcIndex(Addr pc)
{
    if (const std::uint32_t *index = pc_index_.find(pc))
        return *index;
    pc_index_.tryEmplace(pc, static_cast<std::uint32_t>(pc_dict_.size()));
    pc_dict_.push_back(pc);
    return static_cast<std::uint32_t>(pc_dict_.size() - 1);
}

inline std::uint32_t
TraceBuffer::hintIndex(const hints::Hint &hint)
{
    const std::uint64_t key = hintKey(hint);
    if (const std::uint32_t *index = hint_index_.find(key))
        return *index;
    hint_index_.tryEmplace(key,
                           static_cast<std::uint32_t>(hint_dict_.size()));
    hint_dict_.push_back(hint);
    return static_cast<std::uint32_t>(hint_dict_.size() - 1);
}

void
TraceBuffer::encode(const TraceRecord &rec, std::uint32_t pc_index,
                    std::uint32_t hint_index)
{
    std::uint8_t header = static_cast<std::uint8_t>(rec.kind);
    if (rec.kind == InstKind::Branch ? rec.taken : rec.dep_on_prev_load)
        header |= kFlagA;
    if (rec.hint.valid())
        header |= kHasHint;
    if (rec.reg_value != 0)
        header |= kHasReg;
    if (rec.loaded_value != 0)
        header |= kHasLoaded;
    if (rec.repeat != 1)
        header |= kHasRepeat;
    if (rec.size != 8)
        header |= kHasSize;
    RecordWriter w{bytes_.tail(kMaxRecordBytes)};
    w.put(header);
    w.putVarint(pc_index);
    if (header & kHasSize)
        w.put(rec.size);
    if (rec.isMem()) {
        Addr &last = last_vaddr_[pc_index % kVaddrSlots];
        w.putVarint(zigzag(rec.vaddr - last));
        last = rec.vaddr;
    }
    if (header & kHasHint)
        w.putVarint(hint_index);
    if (header & kHasReg)
        w.putVarint(rec.reg_value);
    if (header & kHasLoaded)
        w.putVarint(rec.loaded_value);
    if (header & kHasRepeat)
        w.putVarint(rec.repeat);
    bytes_.commit(w.out);
}

void
TraceBuffer::push(const TraceRecord &rec)
{
    if (tap_)
        tap_(tap_user_, rec);
    payload_hash_.reset();
    // Fold a compute burst into a preceding compute record from the same
    // site so long traces stay compact. The trailing record is the only
    // mutable one, so folding truncates it and re-encodes with the
    // summed burst length; every other field of the original survives.
    if (rec.kind == InstKind::Compute && last_is_compute_ &&
        last_rec_.pc == rec.pc) {
        bytes_.commit(bytes_.data() + last_offset_);
        last_rec_.repeat += rec.repeat;
        encode(last_rec_, last_pc_index_, last_hint_index_);
        instructions_ += rec.repeat;
        return;
    }
    last_offset_ = bytes_.size();
    last_is_compute_ = rec.kind == InstKind::Compute;
    const std::uint32_t pc_index = pcIndex(rec.pc);
    const std::uint32_t hint_index =
        rec.hint.valid() ? hintIndex(rec.hint) : 0;
    if (last_is_compute_) {
        last_rec_ = rec;
        last_pc_index_ = pc_index;
        last_hint_index_ = hint_index;
    }
    encode(rec, pc_index, hint_index);
    ++count_;
    instructions_ += rec.kind == InstKind::Compute ? rec.repeat : 1;
    if (rec.isMem())
        ++mem_accesses_;
}

std::uint64_t
PayloadHashMemo::get(std::span<const std::uint8_t> payload) const
{
    if (valid_.load(std::memory_order_acquire))
        return hash_;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!valid_.load(std::memory_order_relaxed)) {
        hash_ = streamDigest(payload);
        valid_.store(true, std::memory_order_release);
    }
    return hash_;
}

std::uint64_t
packedTraceDigestPrehashed(std::size_t count, std::uint64_t instructions,
                           std::uint64_t payload_hash, const Addr *pcs,
                           std::size_t pc_count, const hints::Hint *hints,
                           std::size_t hint_count)
{
    WordHasher h;
    h.add(count);
    h.add(instructions);
    h.add(payload_hash);
    // Dictionary indices appear in the packed bytes, so hashing each
    // dictionary in index order pins the full record stream. Hints are
    // hashed field-wise: the struct has padding bytes.
    h.add(pc_count);
    for (std::size_t i = 0; i < pc_count; ++i)
        h.add(pcs[i]);
    h.add(hint_count);
    for (std::size_t i = 0; i < hint_count; ++i)
        h.add(hintKey(hints[i]));
    return h.digest();
}

std::uint64_t
TraceBuffer::contentDigest() const
{
    return packedTraceDigestPrehashed(
        count_, instructions_, payload_hash_.get(bytes_), pc_dict_.data(),
        pc_dict_.size(), hint_dict_.data(), hint_dict_.size());
}

const TraceRecord *
TraceCursor::next()
{
    if (pos_ == end_)
        return nullptr;
    const std::uint8_t header = *pos_++;
    const InstKind kind = static_cast<InstKind>(header & kKindMask);
    rec_.kind = kind;
    const std::uint64_t pc_index = readVarint(pos_);
    rec_.pc = pc_dict_[pc_index];
    rec_.size =
        (header & kHasSize) ? *pos_++ : static_cast<std::uint8_t>(8);
    if (kind == InstKind::Load || kind == InstKind::Store) {
        Addr &last = last_vaddr_[pc_index % kVaddrSlots];
        last += unzigzag(readVarint(pos_));
        rec_.vaddr = last;
    } else {
        rec_.vaddr = 0;
    }
    rec_.hint = (header & kHasHint) ? hint_dict_[readVarint(pos_)]
                                    : hints::Hint{};
    rec_.reg_value = (header & kHasReg) ? readVarint(pos_) : 0;
    rec_.loaded_value = (header & kHasLoaded) ? readVarint(pos_) : 0;
    rec_.repeat = (header & kHasRepeat)
                      ? static_cast<std::uint32_t>(readVarint(pos_))
                      : 1;
    if (kind == InstKind::Branch) {
        rec_.taken = (header & kFlagA) != 0;
        rec_.dep_on_prev_load = false;
    } else {
        rec_.dep_on_prev_load = (header & kFlagA) != 0;
        rec_.taken = false;
    }
    return &rec_;
}

void
Recorder::compute(std::uint32_t site, std::uint32_t count)
{
    if (count == 0)
        return;
    TraceRecord rec;
    rec.kind = InstKind::Compute;
    rec.pc = pc(site);
    rec.repeat = count;
    buffer_.push(rec);
}

} // namespace csp::trace
