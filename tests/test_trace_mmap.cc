/** @file Streaming mmap trace replay: MappedTrace decodes the packed
 *  file in place, bit-identical to the in-memory path, verifies the
 *  header digest, and keeps replay RSS near the release-window size
 *  instead of the payload size. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <unistd.h>

#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/simulator.h"
#include "trace/trace_io.h"
#include "workloads/registry.h"

namespace csp::trace {
namespace {

struct TempTraceFile
{
    std::string path;

    explicit TempTraceFile(const char *name)
        : path(std::string("/tmp/csp_mmap_") + name + "_" +
               std::to_string(getpid()) + ".csptrace")
    {}

    ~TempTraceFile() { std::remove(path.c_str()); }
};

TraceBuffer
generate(const char *workload, std::uint64_t scale)
{
    workloads::WorkloadParams params;
    params.scale = scale;
    return workloads::Registry::builtin()
        .create(workload)
        ->generate(params);
}

/** Resident set size from /proc/self/statm, in bytes. */
std::size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t total_pages = 0, resident_pages = 0;
    statm >> total_pages >> resident_pages;
    return resident_pages *
           static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(TraceMmap, DecodesIdenticallyToTheInMemoryCursor)
{
    TempTraceFile file("decode");
    const TraceBuffer buffer = generate("list", 30000);
    ASSERT_TRUE(saveTraceFile(buffer, file.path));

    MappedTrace mapped;
    ASSERT_EQ(mapped.open(file.path), TraceIoStatus::Ok);
    EXPECT_EQ(mapped.size(), buffer.size());
    EXPECT_EQ(mapped.instructions(), buffer.instructions());
    EXPECT_EQ(mapped.memAccesses(), buffer.memAccesses());
    EXPECT_EQ(mapped.contentDigest(), buffer.contentDigest());

    // A deliberately tiny window forces many release/advance steps
    // through the differential decode.
    TraceCursor reference(buffer);
    StreamingTraceSource streamed(mapped, /*window_bytes=*/4096);
    std::size_t records = 0;
    while (true) {
        const TraceRecord *a = reference.next();
        const TraceRecord *b = streamed.next();
        ASSERT_EQ(a == nullptr, b == nullptr) << "record " << records;
        if (a == nullptr)
            break;
        EXPECT_EQ(a->kind, b->kind) << records;
        EXPECT_EQ(a->pc, b->pc) << records;
        EXPECT_EQ(a->vaddr, b->vaddr) << records;
        EXPECT_EQ(a->repeat, b->repeat) << records;
        EXPECT_EQ(a->hint, b->hint) << records;
        EXPECT_EQ(a->loaded_value, b->loaded_value) << records;
        EXPECT_EQ(a->reg_value, b->reg_value) << records;
        EXPECT_EQ(a->dep_on_prev_load, b->dep_on_prev_load) << records;
        EXPECT_EQ(a->taken, b->taken) << records;
        ++records;
    }
    EXPECT_EQ(records, buffer.size());
}

TEST(TraceMmap, ReplayMatchesInMemoryBitForBit)
{
    TempTraceFile file("replay");
    const TraceBuffer buffer = generate("list", 30000);
    ASSERT_TRUE(saveTraceFile(buffer, file.path));
    MappedTrace mapped;
    ASSERT_EQ(mapped.open(file.path), TraceIoStatus::Ok);

    const SystemConfig config;
    for (const char *pf_name : {"none", "stride", "context"}) {
        auto pf_a = sim::makePrefetcher(pf_name, config);
        sim::Simulator sim_a(config);
        const sim::RunStats a = sim_a.run(buffer, *pf_a);

        auto pf_b = sim::makePrefetcher(pf_name, config);
        sim::Simulator sim_b(config);
        const sim::RunStats b = sim_b.run(mapped, *pf_b);

        EXPECT_EQ(sim::runStatsDigest(a), sim::runStatsDigest(b))
            << pf_name;
    }
}

TEST(TraceMmap, OpenVerifiesTheContentDigest)
{
    TempTraceFile file("digest");
    const TraceBuffer buffer = generate("array", 20000);
    ASSERT_TRUE(saveTraceFile(buffer, file.path));

    MappedTrace intact;
    ASSERT_EQ(intact.open(file.path), TraceIoStatus::Ok);
    EXPECT_EQ(intact.size(), buffer.size());
    EXPECT_EQ(intact.instructions(), buffer.instructions());
    EXPECT_EQ(intact.memAccesses(), buffer.memAccesses());
    EXPECT_EQ(intact.contentDigest(), buffer.contentDigest());
    intact.close();

    // Flip one payload byte near the end of the file.
    std::fstream bytes(file.path,
                       std::ios::in | std::ios::out |
                           std::ios::binary);
    bytes.seekg(0, std::ios::end);
    const std::streamoff size = bytes.tellg();
    ASSERT_GT(size, 16);
    bytes.seekg(size - 8);
    char byte = 0;
    bytes.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    bytes.seekp(size - 8);
    bytes.write(&byte, 1);
    bytes.close();

    MappedTrace tampered;
    EXPECT_EQ(tampered.open(file.path), TraceIoStatus::BadDigest);
    EXPECT_FALSE(tampered.mapped());
    // Skipping verification maps it anyway (the caller's informed
    // choice — runSweep always verifies before trusting a file).
    EXPECT_EQ(tampered.open(file.path, /*verify_digest=*/false),
              TraceIoStatus::Ok);
    EXPECT_TRUE(tampered.mapped());
}

TEST(TraceMmap, VerificationCoversEveryWindow)
{
    // open() hashes the payload 4 MiB at a time: a flipped byte in the
    // first window, at a window boundary, or in the partial last
    // window is refused alike.
    TempTraceFile file("windows");
    const TraceBuffer buffer = generate("array", 1000000);
    const std::size_t payload_bytes = buffer.packedBytes().size();
    constexpr std::size_t kWindow = std::size_t{4} << 20;
    ASSERT_GT(payload_bytes, 2 * kWindow + 1000);
    ASSERT_NE(payload_bytes % kWindow, 0u);
    ASSERT_TRUE(saveTraceFile(buffer, file.path));
    std::fstream bytes(file.path,
                       std::ios::in | std::ios::out | std::ios::binary);
    bytes.seekg(0, std::ios::end);
    const std::streamoff payload_off =
        bytes.tellg() - static_cast<std::streamoff>(payload_bytes);
    bytes.close();

    for (const std::size_t at :
         {std::size_t{100}, kWindow - 1, kWindow, 2 * kWindow + 17,
          payload_bytes - 1}) {
        const auto flip = [&] {
            std::fstream f(file.path, std::ios::in | std::ios::out |
                                          std::ios::binary);
            const std::streamoff pos =
                payload_off + static_cast<std::streamoff>(at);
            char byte = 0;
            f.seekg(pos);
            f.read(&byte, 1);
            byte = static_cast<char>(byte ^ 0x01);
            f.seekp(pos);
            f.write(&byte, 1);
        };
        flip();
        MappedTrace mapped;
        EXPECT_EQ(mapped.open(file.path), TraceIoStatus::BadDigest)
            << "payload byte " << at;
        flip();
        EXPECT_EQ(mapped.open(file.path), TraceIoStatus::Ok)
            << "payload byte " << at << " restored";
    }
}

TEST(TraceMmap, StreamingReplayKeepsRssNearTheWindowSize)
{
    TempTraceFile file("rss");
    std::size_t payload_bytes = 0;
    {
        const TraceBuffer buffer = generate("array", 2000000);
        payload_bytes = buffer.packedBytes().size();
        ASSERT_TRUE(saveTraceFile(buffer, file.path));
        // The buffer dies here: the streaming path must never
        // materialise anything comparable again.
    }
    // Big enough that a full materialisation would dominate RSS.
    ASSERT_GT(payload_bytes, std::size_t{3} *
                                 StreamingTraceSource::
                                     kDefaultWindowBytes);

    const std::size_t before = residentBytes();
    MappedTrace mapped;
    ASSERT_EQ(mapped.open(file.path), TraceIoStatus::Ok);
    const SystemConfig config;
    auto prefetcher = sim::makePrefetcher("none", config);
    sim::Simulator simulator(config);
    const sim::RunStats stats = simulator.run(mapped, *prefetcher);
    EXPECT_EQ(stats.instructions, mapped.instructions());
    const std::size_t after = residentBytes();

    // Windowed MADV_DONTNEED keeps the mapping's resident share near
    // one window; everything else (simulator structures, allocator
    // slack) is small. Well below the payload is the contract.
    const std::size_t delta = after > before ? after - before : 0;
    EXPECT_LT(delta, payload_bytes / 2)
        << "replay RSS grew by " << delta << " bytes against a "
        << payload_bytes << "-byte payload";
}

} // namespace
} // namespace csp::trace
