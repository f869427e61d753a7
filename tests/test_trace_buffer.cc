/** @file Unit tests for trace records, buffer and recorder. */

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "trace/trace.h"
#include "trace_util.h"

namespace csp::trace {
namespace {

TEST(TraceBuffer, CountsInstructionsAndAccesses)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    rec.load(0, 0x2000);
    rec.store(1, 0x3000);
    rec.branch(2, true);
    rec.compute(3, 10);
    EXPECT_EQ(buffer.instructions(), 13u);
    EXPECT_EQ(buffer.memAccesses(), 2u);
}

TEST(TraceBuffer, ComputeBurstsFold)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    rec.compute(0, 3);
    rec.compute(0, 4);
    EXPECT_EQ(buffer.size(), 1u);
    EXPECT_EQ(decodeAll(buffer)[0].repeat, 7u);
    EXPECT_EQ(buffer.instructions(), 7u);
}

TEST(TraceBuffer, ComputeBurstsFromDifferentSitesDoNotFold)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    rec.compute(0, 3);
    rec.compute(1, 4);
    EXPECT_EQ(buffer.size(), 2u);
}

TEST(TraceBuffer, ComputeAfterLoadDoesNotFold)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    rec.compute(0, 2);
    rec.load(1, 0x2000);
    rec.compute(0, 2);
    EXPECT_EQ(buffer.size(), 3u);
}

TEST(TraceBuffer, ZeroComputeIsDropped)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    rec.compute(0, 0);
    EXPECT_TRUE(buffer.empty());
}

TEST(Recorder, SyntheticPcsAreDistinctPerSite)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x400000);
    EXPECT_NE(rec.pc(0), rec.pc(1));
    EXPECT_EQ(rec.pc(0), 0x400000u);
}

TEST(Recorder, LoadCarriesHintAndDep)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    const hints::Hint hint{5, 0, hints::RefForm::Arrow};
    rec.load(0, 0xabc0, hint, /*loaded_value=*/0x1234,
             /*dep_on_prev_load=*/true, /*reg_value=*/0x77);
    const TraceRecord r = decodeAll(buffer)[0];
    EXPECT_EQ(r.kind, InstKind::Load);
    EXPECT_EQ(r.vaddr, 0xabc0u);
    EXPECT_EQ(r.hint, hint);
    EXPECT_EQ(r.loaded_value, 0x1234u);
    EXPECT_TRUE(r.dep_on_prev_load);
    EXPECT_EQ(r.reg_value, 0x77u);
}

TEST(Recorder, BranchRecordsOutcome)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    rec.branch(0, true);
    rec.branch(0, false);
    const std::vector<TraceRecord> records = decodeAll(buffer);
    EXPECT_TRUE(records[0].taken);
    EXPECT_FALSE(records[1].taken);
}

TEST(TraceBuffer, FreshCursorsDecodeTheSameRecords)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    const hints::Hint hint{9, hints::kNoLinkOffset,
                           hints::RefForm::Index};
    rec.load(0, 0xff00, hint, 0xdeadbeef, true, 0x55);
    rec.store(1, 0x1234);
    rec.branch(2, false);
    rec.compute(3, 5);

    const std::vector<TraceRecord> records = decodeAll(buffer);
    ASSERT_EQ(records.size(), buffer.size());
    for (int pass = 0; pass < 2; ++pass) {
        TraceCursor cursor = buffer.cursor();
        std::size_t i = 0;
        while (const TraceRecord *r = cursor.next()) {
            ASSERT_LT(i, records.size());
            EXPECT_EQ(r->kind, records[i].kind) << i;
            EXPECT_EQ(r->pc, records[i].pc) << i;
            EXPECT_EQ(r->vaddr, records[i].vaddr) << i;
            EXPECT_EQ(r->hint, records[i].hint) << i;
            EXPECT_EQ(r->repeat, records[i].repeat) << i;
            ++i;
        }
        EXPECT_EQ(i, records.size());
        EXPECT_EQ(cursor.next(), nullptr);
    }
}

/** Every field of @p rec, for whole-record comparison. */
auto
fields(const TraceRecord &rec)
{
    return std::make_tuple(rec.kind, rec.pc, rec.vaddr, rec.repeat,
                           rec.size, rec.dep_on_prev_load, rec.taken,
                           rec.hint.type_id, rec.hint.link_offset,
                           rec.hint.ref_form, rec.reg_value,
                           rec.loaded_value);
}

/** Decode @p buffer and expect exactly @p expected, field for field. */
void
expectDecodes(const TraceBuffer &buffer,
              const std::vector<TraceRecord> &expected)
{
    const std::vector<TraceRecord> decoded = decodeAll(buffer);
    ASSERT_EQ(decoded.size(), expected.size());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        ASSERT_EQ(fields(decoded[i]), fields(expected[i])) << "record " << i;
}

TEST(TraceBuffer, RandomRecordsRoundTripThroughAliasedVaddrSlots)
{
    // 600 PCs share the 256 delta slots; vaddr steps include 0, +-1 and
    // the zigzag edges, taken from the slot's last vaddr (whichever PC
    // wrote it), so the 10-byte codes and their wrap are exercised.
    constexpr std::uint64_t kMin = std::uint64_t{1} << 63;
    const std::uint64_t steps[] = {
        0,  1, ~std::uint64_t{0}, kMin, kMin - 1, kMin + 1,
        64, ~std::uint64_t{4095}};
    const hints::Hint hint_set[] = {
        hints::Hint{}, hints::Hint{1, 8, hints::RefForm::Arrow},
        hints::Hint{9, hints::kNoLinkOffset, hints::RefForm::Index}};
    Rng rng(33);
    std::map<Addr, std::size_t> pc_index;
    VaddrSlots last{};
    std::vector<TraceRecord> expected;
    bool trailing_compute = false;
    TraceBuffer buffer;
    const auto pushRandom = [&](TraceBuffer &into) {
        TraceRecord rec;
        rec.kind = static_cast<InstKind>(rng.below(4));
        rec.pc = 0x400000 + 4 * rng.below(600);
        const std::size_t slot =
            pc_index.try_emplace(rec.pc, pc_index.size()).first->second %
            kVaddrSlots;
        if (rec.isMem()) {
            const std::uint64_t step =
                rng.chance(0.2) ? rng.next() : steps[rng.below(8)];
            rec.vaddr = last[slot] + step;
            last[slot] = rec.vaddr;
            rec.dep_on_prev_load = rec.kind == InstKind::Load &&
                                   rng.chance(0.3);
            rec.loaded_value = rng.chance(0.5) ? rng.next() : 0;
            rec.size = static_cast<std::uint8_t>(1u << rng.below(5));
        } else if (rec.kind == InstKind::Branch) {
            rec.taken = rng.chance(0.5);
        } else {
            rec.repeat = static_cast<std::uint32_t>(1 + rng.below(50));
        }
        rec.hint = hint_set[rng.below(3)]; // folded bursts keep theirs
        rec.reg_value = rng.chance(0.3) ? rng.next() : 0;
        into.push(rec);
        if (rec.kind == InstKind::Compute && trailing_compute &&
            expected.back().pc == rec.pc) {
            expected.back().repeat += rec.repeat;
        } else {
            expected.push_back(rec);
        }
        trailing_compute = rec.kind == InstKind::Compute;
    };
    for (int i = 0; i < 20000; ++i)
        pushRandom(buffer);
    expectDecodes(buffer, expected);
    // A moved-to buffer carries the slot table on.
    TraceBuffer moved = std::move(buffer);
    for (int i = 0; i < 20000; ++i)
        pushRandom(moved);
    EXPECT_GT(pc_index.size(), kVaddrSlots);
    EXPECT_LT(moved.size(), 40000u); // compute bursts folded
    expectDecodes(moved, expected);
}

TEST(TraceBuffer, WidestRecordsRoundTrip)
{
    // Every optional field at its widest, a 3-byte PC index and a
    // vaddr step of 2^63: 41 bytes, the longest record short of 2^21
    // code sites. The payload block doubles from 4096 bytes, so 65536
    // is a block end; the widest record is pushed at every distance
    // from it up to 63 bytes, so a reserved tail shorter than the
    // record is a heap overflow under AddressSanitizer.
    constexpr std::size_t kBlockEnd = 65536;
    constexpr std::uint32_t kSites = 1u << 14;
    TraceRecord wide;
    wide.kind = InstKind::Load;
    wide.repeat = ~std::uint32_t{0};
    wide.size = 0xff;
    wide.dep_on_prev_load = true;
    wide.hint = hints::Hint{0xffff, 0xffff, hints::RefForm::Index};
    wide.reg_value = ~std::uint64_t{0};
    wide.loaded_value = ~std::uint64_t{0};
    for (std::size_t gap = 0; gap < 64; ++gap) {
        TraceBuffer buffer;
        std::vector<TraceRecord> expected;
        const auto push = [&](const TraceRecord &rec) {
            buffer.push(rec);
            expected.push_back(rec);
        };
        TraceRecord branch; // 2 bytes below PC index 128, else 3
        branch.kind = InstKind::Branch;
        for (std::uint32_t site = 0; site < kSites; ++site) {
            branch.pc = 0x400000 + 4 * site;
            push(branch);
        }
        TraceRecord burst; // 3 bytes: header, PC index 0, length 2
        burst.kind = InstKind::Compute;
        burst.pc = 0x400000;
        burst.repeat = 2;
        if ((kBlockEnd - gap - buffer.packedBytes().size()) % 2 != 0)
            push(burst);
        branch.pc = 0x400000; // PC index 0: 2 bytes
        while (buffer.packedBytes().size() < kBlockEnd - gap)
            push(branch);
        ASSERT_EQ(buffer.packedBytes().size(), kBlockEnd - gap);
        wide.pc = 0x400000 + 4 * kSites;
        wide.vaddr = std::uint64_t{1} << 63;
        push(wide);
        EXPECT_EQ(buffer.packedBytes().size(), kBlockEnd - gap + 41);
        wide.vaddr = 0;
        push(wide);
        expectDecodes(buffer, expected);
    }
}

TEST(TraceBuffer, SentinelLinkOffsetSurvivesRoundTrip)
{
    // Hint::pack() would truncate kNoLinkOffset to 13 bits; the
    // dictionary encoding must not.
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    const hints::Hint hint{7, hints::kNoLinkOffset,
                           hints::RefForm::Index};
    rec.load(0, 0x4000, hint);
    EXPECT_EQ(decodeAll(buffer)[0].hint.link_offset,
              hints::kNoLinkOffset);
}

TEST(TraceBuffer, PackedEncodingIsCompact)
{
    TraceBuffer buffer;
    Recorder rec(buffer, 0x1000);
    const hints::Hint hint{1, 8, hints::RefForm::Arrow};
    for (std::uint32_t i = 0; i < 1000; ++i) {
        rec.load(0, 0x100000 + i * 64, hint, /*loaded_value=*/i + 1);
        rec.branch(1, (i & 1) != 0);
        rec.compute(2, 3);
    }
    // A hinted load with a loaded value costs ~13 bytes, a branch 2 and
    // a compute burst 3 — far under half the 56-byte AoS record the
    // acceptance bar is measured against.
    EXPECT_LT(buffer.bytesPerRecord(), 28.0);
    EXPECT_EQ(buffer.pcDictSize(), 3u);
}

TEST(TraceBuffer, PushTapSeesUnfoldedRecords)
{
    std::vector<TraceRecord> seen;
    TraceBuffer::setThreadPushTap(
        [](void *user, const TraceRecord &rec) {
            static_cast<std::vector<TraceRecord> *>(user)->push_back(
                rec);
        },
        &seen);
    TraceBuffer buffer;
    TraceBuffer::setThreadPushTap(nullptr, nullptr);
    Recorder rec(buffer, 0x1000);
    rec.compute(0, 3);
    rec.compute(0, 4);
    EXPECT_EQ(buffer.size(), 1u);
    ASSERT_EQ(seen.size(), 2u); // pre-fold
    EXPECT_EQ(seen[0].repeat, 3u);
    EXPECT_EQ(seen[1].repeat, 4u);
    EXPECT_EQ(decodeAll(buffer)[0].repeat, 7u);
}

TEST(TraceRecord, IsMemClassification)
{
    TraceRecord rec;
    rec.kind = InstKind::Load;
    EXPECT_TRUE(rec.isMem());
    rec.kind = InstKind::Store;
    EXPECT_TRUE(rec.isMem());
    rec.kind = InstKind::Branch;
    EXPECT_FALSE(rec.isMem());
    rec.kind = InstKind::Compute;
    EXPECT_FALSE(rec.isMem());
}

} // namespace
} // namespace csp::trace
