/** @file Property tests over the 16 SPEC CPU2006 synthetic profiles:
 *  every profile must generate a trace whose instruction mix matches
 *  its configured parameters and whose streams exercise the address
 *  ranges they declare. */

#include <gtest/gtest.h>

#include <set>

#include "core/logging.h"
#include "workloads/registry.h"
#include "workloads/spec/spec_synth.h"

namespace csp::workloads::spec {
namespace {

/** The profile of paper Table 3 named @p name. */
const SpecProfile &
specProfile(const std::string &name)
{
    for (const SpecProfile &profile : specProfiles()) {
        if (profile.name == name)
            return profile;
    }
    fatal("unknown SPEC profile: %s", name.c_str());
}

class SpecProfileTest
    : public ::testing::TestWithParam<std::string>
{
  protected:
    trace::TraceBuffer
    generate(std::uint64_t scale = 40000)
    {
        SpecSynth workload(specProfile(GetParam()));
        WorkloadParams params;
        params.scale = scale;
        params.seed = 11;
        return workload.generate(params);
    }
};

TEST_P(SpecProfileTest, MemFractionMatchesProfile)
{
    const SpecProfile &profile = specProfile(GetParam());
    const trace::TraceBuffer buffer = generate();
    const double measured =
        static_cast<double>(buffer.memAccesses()) /
        static_cast<double>(buffer.instructions());
    EXPECT_NEAR(measured, profile.mem_fraction,
                profile.mem_fraction * 0.15)
        << GetParam();
}

TEST_P(SpecProfileTest, BranchFractionMatchesProfile)
{
    const SpecProfile &profile = specProfile(GetParam());
    const trace::TraceBuffer buffer = generate();
    std::uint64_t branches = 0;
    trace::TraceCursor cursor = buffer.cursor();
    while (const trace::TraceRecord *rec = cursor.next()) {
        if (rec->kind == trace::InstKind::Branch)
            ++branches;
    }
    const double measured =
        static_cast<double>(branches) /
        static_cast<double>(buffer.instructions());
    EXPECT_NEAR(measured, profile.branch_fraction,
                profile.branch_fraction * 0.2 + 0.01)
        << GetParam();
}

TEST_P(SpecProfileTest, EveryStreamContributesAccesses)
{
    const SpecProfile &profile = specProfile(GetParam());
    const trace::TraceBuffer buffer = generate(60000);
    // Streams live in disjoint 256MB slices starting at 0x20000000.
    std::set<std::size_t> slices_touched;
    trace::TraceCursor cursor = buffer.cursor();
    while (const trace::TraceRecord *rec = cursor.next()) {
        if (rec->isMem()) {
            slices_touched.insert(static_cast<std::size_t>(
                (rec->vaddr - 0x20000000ull) >> 28));
        }
    }
    EXPECT_EQ(slices_touched.size(), profile.streams.size())
        << GetParam();
}

TEST_P(SpecProfileTest, StreamsStayInsideTheirRegions)
{
    const SpecProfile &profile = specProfile(GetParam());
    const trace::TraceBuffer buffer = generate();
    trace::TraceCursor cursor = buffer.cursor();
    while (const trace::TraceRecord *rec = cursor.next()) {
        if (!rec->isMem())
            continue;
        const std::uint64_t offset = rec->vaddr - 0x20000000ull;
        const std::size_t slice = offset >> 28;
        ASSERT_LT(slice, profile.streams.size()) << GetParam();
        EXPECT_LT(offset - (static_cast<std::uint64_t>(slice) << 28),
                  profile.streams[slice].region_bytes +
                      profile.streams[slice].region_bytes / 4 + 4096)
            << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SpecProfileTest, ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const SpecProfile &profile : specProfiles())
            names.push_back(profile.name);
        return names;
    }()));

TEST(SpecProfiles, SixteenBenchmarksOfTable3)
{
    EXPECT_EQ(specProfiles().size(), 16u);
}

TEST(SpecProfilesDeathTest, UnknownProfileIsFatal)
{
    // perlbench is in SPEC CPU2006 but not among the modelled profiles.
    EXPECT_DEATH((void)Registry::builtin().create("perlbench"),
                 "unknown");
}

TEST(SpecProfiles, PointerHeavyBenchmarksHaveChaseStreams)
{
    for (const std::string name : {"mcf", "omnetpp", "astar"}) {
        bool has_chase = false;
        for (const StreamSpec &stream : specProfile(name).streams) {
            has_chase = has_chase ||
                        stream.kind == StreamKind::PointerChase;
        }
        EXPECT_TRUE(has_chase) << name;
    }
}

TEST(SpecProfiles, StreamingBenchmarksAreStrideDominated)
{
    for (const std::string name : {"lbm", "libquantum", "milc"}) {
        double stride_weight = 0.0;
        double total_weight = 0.0;
        for (const StreamSpec &stream : specProfile(name).streams) {
            total_weight += stream.weight;
            if (stream.kind == StreamKind::Stride)
                stride_weight += stream.weight;
        }
        EXPECT_GT(stride_weight / total_weight, 0.7) << name;
    }
}

} // namespace
} // namespace csp::workloads::spec
