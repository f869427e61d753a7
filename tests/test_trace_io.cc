/** @file Unit tests for binary trace serialization. */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/hashing.h"
#include "trace/trace_io.h"
#include "trace_util.h"
#include "workloads/registry.h"

namespace csp::trace {
namespace {

TraceBuffer
sampleTrace()
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x400000);
    const hints::Hint hint{3, 8, hints::RefForm::Arrow};
    rec.load(0, 0x10000, hint, 0xfeed, true, 0x77);
    rec.store(1, 0x20000, hint);
    rec.branch(2, true);
    rec.compute(3, 42);
    rec.load(0, 0x10040);
    return buffer;
}

/** A scratch file path private to this process: ctest runs the tests
 *  of this file as concurrent processes sharing one TempDir(). */
std::string
scratchPath(const std::string &name)
{
    return testing::TempDir() + std::to_string(getpid()) + '_' + name;
}

/** Map a trace file holding @p bytes. The file is unlinked at once:
 *  the mapping outlives it. */
TraceIoStatus
openBytes(const std::string &bytes, MappedTrace &mapped)
{
    const std::string path = scratchPath("csp_test.csptrace");
    std::ofstream(path, std::ios::binary) << bytes;
    const TraceIoStatus status = mapped.open(path);
    std::remove(path.c_str());
    return status;
}

/** @p buffer serialized to bytes. */
std::string
savedBytes(const TraceBuffer &buffer)
{
    std::stringstream stream;
    EXPECT_TRUE(saveTrace(buffer, stream));
    return stream.str();
}

/** Every record of @p mapped, decoded in order. */
std::vector<TraceRecord>
decodeMapped(const MappedTrace &mapped)
{
    std::vector<TraceRecord> out;
    TraceCursor cur = mapped.cursor();
    while (const TraceRecord *rec = cur.next())
        out.push_back(*rec);
    return out;
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    const TraceBuffer original = sampleTrace();
    MappedTrace loaded;
    ASSERT_EQ(openBytes(savedBytes(original), loaded), TraceIoStatus::Ok);
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.instructions(), original.instructions());
    EXPECT_EQ(loaded.memAccesses(), original.memAccesses());
    EXPECT_EQ(loaded.contentDigest(), original.contentDigest());
    const std::vector<TraceRecord> original_recs = decodeAll(original);
    const std::vector<TraceRecord> loaded_recs = decodeMapped(loaded);
    ASSERT_EQ(loaded_recs.size(), original_recs.size());
    for (std::size_t i = 0; i < original_recs.size(); ++i) {
        const TraceRecord &a = original_recs[i];
        const TraceRecord &b = loaded_recs[i];
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.pc, b.pc) << i;
        EXPECT_EQ(a.vaddr, b.vaddr) << i;
        EXPECT_EQ(a.repeat, b.repeat) << i;
        EXPECT_EQ(a.hint, b.hint) << i;
        EXPECT_EQ(a.loaded_value, b.loaded_value) << i;
        EXPECT_EQ(a.reg_value, b.reg_value) << i;
        EXPECT_EQ(a.dep_on_prev_load, b.dep_on_prev_load) << i;
        EXPECT_EQ(a.taken, b.taken) << i;
    }
}

TEST(TraceIo, RoundTripOfGeneratedWorkload)
{
    workloads::WorkloadParams params;
    params.scale = 5000;
    const TraceBuffer original = workloads::Registry::builtin()
                                     .create("list")
                                     ->generate(params);
    MappedTrace loaded;
    ASSERT_EQ(openBytes(savedBytes(original), loaded), TraceIoStatus::Ok);
    ASSERT_EQ(loaded.size(), original.size());
    const std::vector<TraceRecord> original_recs = decodeAll(original);
    const std::vector<TraceRecord> loaded_recs = decodeMapped(loaded);
    ASSERT_EQ(loaded_recs.size(), original_recs.size());
    for (std::size_t i = 0; i < original_recs.size(); i += 37)
        EXPECT_EQ(loaded_recs[i].vaddr, original_recs[i].vaddr);
}

TEST(TraceIo, BadMagicRejected)
{
    MappedTrace loaded;
    EXPECT_EQ(openBytes("NOTATRACEFILE_PADDING_PADDING", loaded),
              TraceIoStatus::BadMagic);
}

TEST(TraceIo, TruncatedHeaderRejected)
{
    MappedTrace loaded;
    EXPECT_EQ(openBytes("CSP", loaded), TraceIoStatus::Truncated);
}

TEST(TraceIo, TruncatedBodyRejected)
{
    std::string bytes = savedBytes(sampleTrace());
    bytes.resize(bytes.size() - 10);
    MappedTrace loaded;
    EXPECT_EQ(openBytes(bytes, loaded), TraceIoStatus::Truncated);
}

TEST(TraceIo, MissingFileReported)
{
    MappedTrace mapped;
    EXPECT_EQ(mapped.open("/nonexistent/path/x.trace"),
              TraceIoStatus::CannotOpen);
}

TEST(TraceIo, FileRoundTrip)
{
    const TraceBuffer original = sampleTrace();
    const std::string path = scratchPath("csp_test_trace.bin");
    ASSERT_TRUE(saveTraceFile(original, path));
    MappedTrace loaded;
    EXPECT_EQ(loaded.open(path), TraceIoStatus::Ok);
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.contentDigest(), original.contentDigest());
    std::remove(path.c_str());
}

TEST(TraceIo, WriteFailureOnTheFinalFlushIsReported)
{
    // Every write to /dev/full fails with ENOSPC, but a trace this
    // small sits in the stream's buffer until close flushes it.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    EXPECT_FALSE(saveTraceFile(sampleTrace(), "/dev/full"));
}

long
peakRssKib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/** A header field of the v3 layout: offset and width in bytes. */
struct HeaderField
{
    const char *name;
    std::size_t offset;
    std::size_t size;
};

// Every header field the content digest or the size check covers.
// mem_accesses (offset 32) and reserved (offset 12) are covered by
// neither, so a flip there still loads; they are left out.
constexpr HeaderField kCheckedFields[] = {
    {"magic", 0, 8},           {"version", 8, 4},
    {"record_count", 16, 8},   {"instructions", 24, 8},
    {"content_digest", 40, 8}, {"pc_dict_count", 48, 4},
    {"hint_dict_count", 52, 4}, {"payload_bytes", 56, 8},
};
constexpr std::size_t kHeaderBytes = 64;

template <typename T>
T
fieldAt(const std::string &bytes, std::size_t offset)
{
    T value{};
    std::memcpy(&value, bytes.data() + offset, sizeof value);
    return value;
}

template <typename T>
void
setField(std::string &bytes, std::size_t offset, T value)
{
    std::memcpy(bytes.data() + offset, &value, sizeof value);
}

TEST(TraceIo, CorruptionMatrixIsRefusedByEveryReader)
{
    workloads::WorkloadParams params;
    params.scale = 2000;
    std::stringstream stream;
    ASSERT_TRUE(saveTrace(
        workloads::Registry::builtin().create("list")->generate(params),
        stream));
    const std::string good = stream.str();
    MappedTrace good_map;
    ASSERT_EQ(openBytes(good, good_map), TraceIoStatus::Ok);
    const std::uint64_t payload_bytes = fieldAt<std::uint64_t>(good, 56);
    const std::size_t payload_off = good.size() - payload_bytes;
    ASSERT_GT(payload_off, kHeaderBytes); // both dictionaries non-empty
    const long rss_before = peakRssKib();

    const auto expectRefused = [](const std::string &bytes,
                                  const std::string &row) {
        MappedTrace mapped;
        EXPECT_NE(openBytes(bytes, mapped), TraceIoStatus::Ok) << row;
    };

    // Truncation at every header offset and at sampled payload offsets.
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n <= kHeaderBytes; ++n)
        cuts.push_back(n);
    for (std::size_t n = payload_off; n < good.size();
         n += payload_bytes / 16 + 1)
        cuts.push_back(n);
    cuts.push_back(good.size() - 1);
    for (const std::size_t n : cuts)
        expectRefused(good.substr(0, n), "cut at " + std::to_string(n));

    // Every byte of every checked header field flipped.
    for (const HeaderField &field : kCheckedFields) {
        for (std::size_t b = 0; b < field.size; ++b) {
            std::string bytes = good;
            bytes[field.offset + b] ^= 0xff;
            expectRefused(bytes, std::string(field.name) + " byte " +
                                     std::to_string(b));
        }
    }

    // Both dictionaries, byte by byte, and sampled payload bytes. The
    // last three bytes of each 8-byte hint entry are padding no reader
    // looks at.
    const std::size_t hint_off =
        kHeaderBytes + 8 * std::size_t{fieldAt<std::uint32_t>(good, 48)};
    std::vector<std::size_t> flips;
    for (std::size_t off = kHeaderBytes; off < payload_off; ++off) {
        if (off < hint_off || (off - hint_off) % 8 < 5)
            flips.push_back(off);
    }
    for (std::size_t off = payload_off; off < good.size();
         off += payload_bytes / 16 + 1)
        flips.push_back(off);
    for (const std::size_t off : flips) {
        std::string bytes = good;
        bytes[off] ^= 0xff;
        expectRefused(bytes, "flip at " + std::to_string(off));
    }

    // Section sizes that would each cost seconds and gigabytes to
    // allocate before the read could fail: refused from the header.
    const std::vector<std::pair<std::size_t, std::uint64_t>> huge = {
        {52, 0x7fffffff}, {52, 0x10000000}, {56, std::uint64_t{1} << 30}};
    for (const auto &[offset, value] : huge) {
        std::string bytes = good;
        if (offset == 52)
            setField(bytes, offset, static_cast<std::uint32_t>(value));
        else
            setField(bytes, offset, value);
        MappedTrace mapped;
        EXPECT_EQ(openBytes(bytes, mapped), TraceIoStatus::Truncated)
            << "huge field at " << offset;
    }

    EXPECT_LT(peakRssKib() - rss_before, 64 * 1024)
        << "a reader sized an allocation from a corrupt header";
}

/** @p buffer saved as a trace file of format v3: the v4 header and
 *  dictionaries, then the v3 payload (raw vaddrs), with @p digest as
 *  its content digest. */
std::string
formatV3File(const TraceBuffer &buffer, std::uint64_t digest)
{
    const std::vector<std::uint8_t> payload = formatV3Payload(buffer);
    std::string bytes = savedBytes(buffer);
    EXPECT_EQ(fieldAt<std::uint32_t>(bytes, 8), 4u);
    bytes.resize(bytes.size() - buffer.packedBytes().size());
    bytes.append(payload.begin(), payload.end());
    setField(bytes, 8, std::uint32_t{3});
    setField(bytes, 40, digest);
    setField(bytes, 56, std::uint64_t{payload.size()});
    return bytes;
}

TraceBuffer
listTrace()
{
    workloads::WorkloadParams params;
    params.scale = 2000;
    return workloads::Registry::builtin().create("list")->generate(params);
}

TEST(TraceIo, VersionTwoFileIsRefusedAsBadVersion)
{
    // A v2 file has the v3 layout, with the content digest taken over
    // an FNV-1a of the payload.
    const TraceBuffer buffer = listTrace();
    std::string v2 = formatV3File(buffer, formatV3Digest(buffer, fnv1a));
    setField(v2, 8, std::uint32_t{2});
    MappedTrace mapped;
    EXPECT_EQ(openBytes(v2, mapped), TraceIoStatus::BadVersion);
    EXPECT_FALSE(mapped.mapped());
    // The version check is what refuses it: relabelled v4, the old
    // digest does not verify.
    setField(v2, 8, std::uint32_t{4});
    EXPECT_EQ(openBytes(v2, mapped), TraceIoStatus::BadDigest);
}

TEST(TraceIo, VersionThreeFileIsRefusedAsBadVersion)
{
    // A v3 file stores each vaddr as 8 raw bytes, under the digest
    // formula of today.
    const TraceBuffer buffer = listTrace();
    const std::uint64_t digest = formatV3Digest(buffer, streamDigest);
    ASSERT_NE(digest, buffer.contentDigest());
    std::string v3 = formatV3File(buffer, digest);
    MappedTrace mapped;
    EXPECT_EQ(openBytes(v3, mapped), TraceIoStatus::BadVersion);
    EXPECT_FALSE(mapped.mapped());
    // Only the version tells the payloads apart: relabelled v4, the
    // digest verifies over the v3 bytes, which would decode to other
    // records.
    setField(v3, 8, std::uint32_t{4});
    EXPECT_EQ(openBytes(v3, mapped), TraceIoStatus::Ok);
    EXPECT_NE(mapped.payloadBytes(), buffer.packedBytes().size());
}

TEST(TraceIo, StatusNamesDistinct)
{
    EXPECT_STRNE(traceIoStatusName(TraceIoStatus::Ok),
                 traceIoStatusName(TraceIoStatus::BadMagic));
    EXPECT_STRNE(traceIoStatusName(TraceIoStatus::Truncated),
                 traceIoStatusName(TraceIoStatus::CannotOpen));
}

} // namespace
} // namespace csp::trace
