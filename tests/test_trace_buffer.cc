/** @file Unit tests for trace records, buffer and recorder. */

#include <gtest/gtest.h>

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

TEST(TraceBuffer, CursorMatchesDecodeAndResets)
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
        EXPECT_TRUE(cursor.done());
        cursor.reset();
        EXPECT_EQ(cursor.done(), buffer.empty());
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
