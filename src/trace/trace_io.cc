#include "trace/trace_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>

#include "core/hashing.h"

namespace csp::trace {

namespace {

constexpr char kMagic[8] = {'C', 'S', 'P', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 4;

/**
 * On-disk header (64 bytes, little-endian host assumed, 8-byte
 * aligned so the sections after it stay aligned inside an mmap).
 * Layout: header | pc dict (u64 each) | hint dict (DiskHint each) |
 * packed payload.
 */
struct Header
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t reserved;
    std::uint64_t record_count;
    std::uint64_t instructions;
    std::uint64_t mem_accesses;
    std::uint64_t content_digest;
    std::uint32_t pc_dict_count;
    std::uint32_t hint_dict_count;
    std::uint64_t payload_bytes;
};
static_assert(sizeof(Header) == 64);

/** On-disk hint-dictionary entry (hints::Hint has internal padding). */
struct DiskHint
{
    std::uint16_t type_id;
    std::uint16_t link_offset;
    std::uint8_t ref_form;
    std::uint8_t pad[3];
};
static_assert(sizeof(DiskHint) == 8);

hints::Hint
unpackHint(const DiskHint &disk)
{
    hints::Hint hint;
    hint.type_id = disk.type_id;
    hint.link_offset = disk.link_offset;
    hint.ref_form = static_cast<hints::RefForm>(disk.ref_form);
    return hint;
}

/** Bytes of the two dictionaries that follow @p header. */
std::uint64_t
dictBytes(const Header &header)
{
    return std::uint64_t{header.pc_dict_count} * sizeof(Addr) +
           std::uint64_t{header.hint_dict_count} * sizeof(DiskHint);
}

/** Unpack the dictionaries stored at @p at. */
void
unpackDicts(const char *at, const Header &header, std::vector<Addr> &pc_dict,
            std::vector<hints::Hint> &hint_dict)
{
    pc_dict.resize(header.pc_dict_count);
    std::memcpy(pc_dict.data(), at, pc_dict.size() * sizeof(Addr));
    at += pc_dict.size() * sizeof(Addr);
    hint_dict.resize(header.hint_dict_count);
    for (hints::Hint &hint : hint_dict) {
        DiskHint disk{};
        std::memcpy(&disk, at, sizeof disk);
        at += sizeof disk;
        hint = unpackHint(disk);
    }
}

/**
 * The header check every reader makes before it sizes anything from
 * the header. @p bytes holds the first min(@p file_len, sizeof(Header))
 * bytes of the file. Checks magic, version and that the sections fit
 * in the file (no overflow: the dictionary counts are 32-bit).
 */
TraceIoStatus
checkHeader(const char *bytes, std::uint64_t file_len, Header &header)
{
    // Magic is checked before the header length so an unrelated short
    // file reports BadMagic, not Truncated.
    if (file_len < sizeof kMagic)
        return TraceIoStatus::Truncated;
    if (std::memcmp(bytes, kMagic, sizeof kMagic) != 0)
        return TraceIoStatus::BadMagic;
    if (file_len < sizeof(Header))
        return TraceIoStatus::Truncated;
    std::memcpy(&header, bytes, sizeof header);
    if (header.version != kVersion)
        return TraceIoStatus::BadVersion;
    const std::uint64_t payload_off = sizeof(Header) + dictBytes(header);
    if (payload_off > file_len ||
        header.payload_bytes > file_len - payload_off)
        return TraceIoStatus::Truncated;
    return TraceIoStatus::Ok;
}

/** Window size for digest verification over a mapping (see
 *  MappedTrace::open): bounds verification RSS without paying a
 *  madvise per page. */
constexpr std::size_t kVerifyWindowBytes = std::size_t{4} << 20;

} // namespace

const char *
traceIoStatusName(TraceIoStatus status)
{
    switch (status) {
      case TraceIoStatus::Ok: return "ok";
      case TraceIoStatus::CannotOpen: return "cannot-open";
      case TraceIoStatus::BadMagic: return "bad-magic";
      case TraceIoStatus::BadVersion: return "bad-version";
      case TraceIoStatus::Truncated: return "truncated";
      case TraceIoStatus::BadDigest: return "bad-digest";
    }
    return "?";
}

bool
saveTrace(const TraceBuffer &buffer, std::ostream &stream)
{
    Header header{};
    std::memcpy(header.magic, kMagic, sizeof kMagic);
    header.version = kVersion;
    header.record_count = buffer.size();
    header.instructions = buffer.instructions();
    header.mem_accesses = buffer.memAccesses();
    header.content_digest = buffer.contentDigest();
    header.pc_dict_count =
        static_cast<std::uint32_t>(buffer.pcDict().size());
    header.hint_dict_count =
        static_cast<std::uint32_t>(buffer.hintDict().size());
    header.payload_bytes = buffer.packedBytes().size();
    stream.write(reinterpret_cast<const char *>(&header),
                 sizeof header);
    stream.write(
        reinterpret_cast<const char *>(buffer.pcDict().data()),
        static_cast<std::streamsize>(buffer.pcDict().size() *
                                     sizeof(Addr)));
    for (const hints::Hint &hint : buffer.hintDict()) {
        DiskHint disk{};
        disk.type_id = hint.type_id;
        disk.link_offset = hint.link_offset;
        disk.ref_form = static_cast<std::uint8_t>(hint.ref_form);
        stream.write(reinterpret_cast<const char *>(&disk),
                     sizeof disk);
    }
    stream.write(
        reinterpret_cast<const char *>(buffer.packedBytes().data()),
        static_cast<std::streamsize>(buffer.packedBytes().size()));
    return static_cast<bool>(stream);
}

bool
saveTraceFile(const TraceBuffer &buffer, const std::string &path)
{
    std::ofstream stream(path, std::ios::binary);
    if (!stream || !saveTrace(buffer, stream))
        return false;
    // The last buffered bytes reach the file only on close; a full
    // disk may refuse them there.
    stream.close();
    return static_cast<bool>(stream);
}

void
MappedTrace::close()
{
    if (base_ != nullptr)
        ::munmap(base_, map_len_);
    base_ = nullptr;
    map_len_ = 0;
    payload_ = nullptr;
    payload_bytes_ = 0;
    pc_dict_.clear();
    hint_dict_.clear();
    record_count_ = 0;
    instructions_ = 0;
    mem_accesses_ = 0;
    content_digest_ = 0;
    released_ = 0;
}

TraceIoStatus
MappedTrace::open(const std::string &path, bool verify_digest)
{
    close();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return TraceIoStatus::CannotOpen;
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return TraceIoStatus::CannotOpen;
    }
    const std::size_t file_len = static_cast<std::size_t>(st.st_size);
    if (file_len == 0) {
        ::close(fd);
        return TraceIoStatus::Truncated;
    }
    void *base =
        ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED)
        return TraceIoStatus::CannotOpen;
    base_ = base;
    map_len_ = file_len;

    const auto *bytes = static_cast<const char *>(base_);
    Header header{};
    const TraceIoStatus status = checkHeader(bytes, file_len, header);
    if (status != TraceIoStatus::Ok) {
        close();
        return status;
    }
    unpackDicts(bytes + sizeof(Header), header, pc_dict_, hint_dict_);
    payload_ = static_cast<const std::uint8_t *>(base_) + sizeof(Header) +
               dictBytes(header);
    payload_bytes_ = header.payload_bytes;
    record_count_ = header.record_count;
    instructions_ = header.instructions;
    mem_accesses_ = header.mem_accesses;
    content_digest_ = header.content_digest;

    if (verify_digest) {
        StreamDigest payload_hash;
        for (std::size_t off = 0; off < payload_bytes_;
             off += kVerifyWindowBytes) {
            const std::size_t n =
                std::min(kVerifyWindowBytes, payload_bytes_ - off);
            payload_hash.update({payload_ + off, n});
            releaseConsumed(payload_ + off + n);
        }
        const std::uint64_t expect = packedTraceDigestPrehashed(
            record_count_, instructions_, payload_hash.digest(),
            pc_dict_.data(), pc_dict_.size(), hint_dict_.data(),
            hint_dict_.size());
        if (expect != content_digest_) {
            close();
            return TraceIoStatus::BadDigest;
        }
        // Replay starts over from the first payload page; reset the
        // high-water mark so its release bookkeeping stays monotonic.
        released_ = 0;
    }
    return TraceIoStatus::Ok;
}

void
MappedTrace::releaseConsumed(const std::uint8_t *upto) const
{
    if (base_ == nullptr)
        return;
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    auto *base = static_cast<std::uint8_t *>(base_);
    std::size_t off = static_cast<std::size_t>(upto - base);
    off &= ~(page - 1);
    if (off <= released_)
        return;
    ::madvise(base + released_, off - released_, MADV_DONTNEED);
    released_ = off;
}

} // namespace csp::trace
