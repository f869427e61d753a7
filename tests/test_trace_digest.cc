/** @file TraceBuffer hashes its payload once, on the first
 *  contentDigest() after a push, and keeps the hash; these tests check
 *  that contentDigest() always equals the digest recomputed from the
 *  packed bytes — for every workload and across compute-burst folds
 *  and hints — and pin the trace digests: of the decoded records, of
 *  the payload bytes, and of the bytes older formats wrote. */

#include <gtest/gtest.h>

#include <string>

#include "core/hashing.h"
#include "core/rng.h"
#include "sim/experiment.h"
#include "trace/trace.h"
#include "trace_util.h"
#include "workloads/registry.h"

namespace csp::trace {
namespace {

/** The digest of @p buffer's parts, hashing the payload from scratch. */
std::uint64_t
recomputedDigest(const TraceBuffer &buffer)
{
    return packedTraceDigestPrehashed(
        buffer.size(), buffer.instructions(),
        streamDigest(buffer.packedBytes()), buffer.pcDict().data(),
        buffer.pcDict().size(), buffer.hintDict().data(),
        buffer.hintDict().size());
}

/** Push one random record: few sites so compute bursts fold often,
 *  hints from a small set, every optional field sometimes set. */
void
pushRandom(TraceBuffer &buffer, Rng &rng)
{
    TraceRecord rec;
    rec.kind = static_cast<InstKind>(rng.below(4));
    rec.pc = 0x4000 + 4 * rng.below(6);
    if (rec.kind == InstKind::Compute) {
        rec.repeat = static_cast<std::uint32_t>(1 + rng.below(300));
    } else if (rec.isMem()) {
        rec.vaddr = rng.next();
        if (rng.chance(0.5)) {
            rec.hint = hints::Hint{
                static_cast<std::uint16_t>(rng.below(4)),
                static_cast<std::uint16_t>(8 * rng.below(3)),
                hints::RefForm::Arrow};
        }
        rec.loaded_value = rng.chance(0.5) ? rng.next() : 0;
        rec.dep_on_prev_load = rng.chance(0.3);
    } else {
        rec.taken = rng.chance(0.5);
    }
    rec.reg_value = rng.chance(0.2) ? rng.next() : 0;
    if (rng.chance(0.1))
        rec.size = 4;
    buffer.push(rec);
}

TEST(TraceContentDigest, EveryWorkloadMatchesTheRecomputedDigest)
{
    const auto &registry = workloads::Registry::builtin();
    workloads::WorkloadParams params;
    params.scale = 20000;
    for (const std::string &name : sim::allWorkloads()) {
        const TraceBuffer buffer = registry.create(name)->generate(params);
        EXPECT_EQ(buffer.contentDigest(), recomputedDigest(buffer))
            << name;
    }
}

TEST(TraceContentDigest, RandomPushesWithFoldsAndHintsMatchAfterEveryPush)
{
    Rng rng(7);
    TraceBuffer buffer;
    EXPECT_EQ(buffer.contentDigest(), recomputedDigest(buffer));
    std::size_t pushes = 0;
    for (; pushes < 3000; ++pushes) {
        pushRandom(buffer, rng);
        ASSERT_EQ(buffer.contentDigest(), recomputedDigest(buffer))
            << "after push " << pushes;
    }
    // Folds happened, so the rewind path was exercised.
    EXPECT_LT(buffer.size(), pushes);
    EXPECT_GT(buffer.hintDict().size(), 1u);
}

/** @p workload's trace at seed 1. */
TraceBuffer
workloadTrace(const std::string &workload, std::uint64_t scale)
{
    workloads::WorkloadParams params;
    params.scale = scale;
    params.seed = 1;
    return workloads::Registry::builtin().create(workload)->generate(
        params);
}

/** A digest over every field of every record @p buffer decodes to:
 *  unlike the content digest it does not depend on how the records are
 *  encoded, only on what they are. */
std::uint64_t
decodedRecordDigest(const TraceBuffer &buffer)
{
    WordHasher h;
    TraceCursor cursor = buffer.cursor();
    while (const TraceRecord *r = cursor.next()) {
        h.add(static_cast<std::uint64_t>(r->kind));
        h.add(r->pc);
        h.add(r->vaddr);
        h.add(r->repeat);
        h.add(r->size);
        h.add(r->dep_on_prev_load);
        h.add(r->taken);
        h.add(r->hint.type_id);
        h.add(r->hint.link_offset);
        h.add(static_cast<std::uint64_t>(r->hint.ref_form));
        h.add(r->reg_value);
        h.add(r->loaded_value);
    }
    return h.digest();
}

TEST(TraceContentDigest, BaselineTraceDigestsArePinned)
{
    // The runs of results/baseline/list_context.json and mcf_all.json
    // (cspsim --stats-out at these scales).
    const TraceBuffer list = workloadTrace("list", 50000);
    const TraceBuffer mcf = workloadTrace("mcf", 20000);
    // What the traces decode to: the records the baselines were
    // recorded from, whatever the payload encoding.
    EXPECT_EQ(decodedRecordDigest(list), 0x4aaedeefa5cf3817ull);
    EXPECT_EQ(decodedRecordDigest(mcf), 0x0624e5bd36003c8eull);
    // Their format v4 bytes (vaddrs delta coded per PC slot).
    EXPECT_EQ(list.contentDigest(), 0xc8b23b46d5816c41ull);
    EXPECT_EQ(mcf.contentDigest(), 0xe187a4d3f62f4ecbull);
    // The same records in format v3 (raw vaddrs) reproduce the v3
    // content digests, and the FNV-1a digests of format v2 that the
    // baselines' manifests carry.
    EXPECT_EQ(formatV3Digest(list, streamDigest), 0x6a0b8d745ee062bdull);
    EXPECT_EQ(formatV3Digest(mcf, streamDigest), 0x3ef927bc2ee00c19ull);
    EXPECT_EQ(formatV3Digest(list, fnv1a), 0x335438bb5b66df0bull);
    EXPECT_EQ(formatV3Digest(mcf, fnv1a), 0x9d42426f4624aee6ull);
}

} // namespace
} // namespace csp::trace
