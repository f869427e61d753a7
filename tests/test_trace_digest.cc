/** @file TraceBuffer hashes its payload once, on the first
 *  contentDigest() after a push, and keeps the hash; these tests check
 *  that contentDigest() always equals the digest recomputed from the
 *  packed bytes — for every workload and across compute-burst folds
 *  and hints — and pin the trace digests, new and legacy. */

#include <gtest/gtest.h>

#include <string>

#include "core/hashing.h"
#include "core/rng.h"
#include "sim/experiment.h"
#include "trace/trace.h"
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

/** The content digest as trace format v2 computed it: the same formula
 *  over an FNV-1a of the payload. */
std::uint64_t
legacyFnvDigest(const TraceBuffer &buffer)
{
    return packedTraceDigestPrehashed(
        buffer.size(), buffer.instructions(), fnv1a(buffer.packedBytes()),
        buffer.pcDict().data(), buffer.pcDict().size(),
        buffer.hintDict().data(), buffer.hintDict().size());
}

TEST(TraceContentDigest, BaselineTraceDigestsArePinned)
{
    // The runs of results/baseline/list_context.json and mcf_all.json
    // (cspsim --stats-out at these scales).
    const TraceBuffer list = workloadTrace("list", 50000);
    const TraceBuffer mcf = workloadTrace("mcf", 20000);
    EXPECT_EQ(list.contentDigest(), 0x6a0b8d745ee062bdull);
    EXPECT_EQ(mcf.contentDigest(), 0x3ef927bc2ee00c19ull);
    // The baselines' manifests carry the FNV-1a digests: the same
    // buffers still reproduce them, so the trace bytes are the ones
    // the baselines were recorded from.
    EXPECT_EQ(legacyFnvDigest(list), 0x335438bb5b66df0bull);
    EXPECT_EQ(legacyFnvDigest(mcf), 0x9d42426f4624aee6ull);
}

} // namespace
} // namespace csp::trace
