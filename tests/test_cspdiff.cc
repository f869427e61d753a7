/**
 * @file
 * Regression-observatory tests: JSON/CSV flattening, the
 * correctness/timing/provenance classification, and the diff + exit
 * semantics cspdiff builds CI gates from — including golden canned
 * run documents exercising every verdict.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "diff/csp_diff.h"

namespace csp::diff {
namespace {

FlatDoc
parseJson(const std::string &text)
{
    FlatDoc doc;
    std::string error;
    EXPECT_TRUE(parseJsonFlat(text, doc, &error)) << error;
    return doc;
}

TEST(JsonFlatten, NestedObjectsJoinWithDots)
{
    const FlatDoc doc =
        parseJson(R"({"a":{"b":{"c":3}},"d":"x"})");
    const FlatValue *c = doc.find("a.b.c");
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->is_number);
    EXPECT_EQ(c->number, 3.0);
    const FlatValue *d = doc.find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_FALSE(d->is_number);
    EXPECT_EQ(d->text, "x");
}

TEST(JsonFlatten, ArraysIndexAsSegments)
{
    const FlatDoc doc = parseJson(R"({"v":[10,20,{"w":30}]})");
    ASSERT_NE(doc.find("v.0"), nullptr);
    EXPECT_EQ(doc.find("v.1")->number, 20.0);
    EXPECT_EQ(doc.find("v.2.w")->number, 30.0);
}

TEST(JsonFlatten, EscapesAndNumbers)
{
    const FlatDoc doc = parseJson(
        R"({"s":"a\"b\\c\n","neg":-2.5e-1,"t":true,"n":null})");
    EXPECT_EQ(doc.find("s")->text, "a\"b\\c\n");
    EXPECT_DOUBLE_EQ(doc.find("neg")->number, -0.25);
    EXPECT_EQ(doc.find("t")->text, "true");
    EXPECT_EQ(doc.find("n")->text, "null");
}

TEST(JsonFlatten, RejectsMalformed)
{
    FlatDoc doc;
    std::string error;
    EXPECT_FALSE(parseJsonFlat("{\"a\":", doc, &error));
    EXPECT_FALSE(error.empty());
}

TEST(CsvFlatten, CellsKeyedByRowAndHeader)
{
    FlatDoc doc;
    std::string error;
    ASSERT_TRUE(parseCsvFlat(
        "workload,ipc,mpki\nmcf,0.5,12\nbst,0.9,3\n", doc, &error))
        << error;
    EXPECT_DOUBLE_EQ(doc.find("mcf.ipc")->number, 0.5);
    EXPECT_DOUBLE_EQ(doc.find("bst.mpki")->number, 3.0);
}

TEST(CsvFlatten, DuplicateRowKeysGetSuffixes)
{
    FlatDoc doc;
    std::string error;
    ASSERT_TRUE(parseCsvFlat("k,v\nrow,1\nrow,2\n", doc, &error))
        << error;
    EXPECT_DOUBLE_EQ(doc.find("row.v")->number, 1.0);
    EXPECT_DOUBLE_EQ(doc.find("row#2.v")->number, 2.0);
}

TEST(CsvFlatten, ManifestCommentBecomesProvenanceEntries)
{
    FlatDoc doc;
    std::string error;
    ASSERT_TRUE(parseCsvFlat("# plain comment is skipped\n"
                             "# manifest {\"tool\":\"cspsim\","
                             "\"seed\":7}\n"
                             "k,v\nrow,1\n",
                             doc, &error))
        << error;
    ASSERT_NE(doc.find("manifest.tool"), nullptr);
    EXPECT_EQ(doc.find("manifest.tool")->text, "cspsim");
    EXPECT_DOUBLE_EQ(doc.find("manifest.seed")->number, 7.0);
}

TEST(ParseFlat, DispatchesOnFirstCharacter)
{
    FlatDoc json_doc;
    FlatDoc csv_doc;
    std::string error;
    ASSERT_TRUE(parseFlat("{\"a\":1}", json_doc, &error)) << error;
    ASSERT_TRUE(parseFlat("k,v\nrow,1\n", csv_doc, &error)) << error;
    EXPECT_NE(json_doc.find("a"), nullptr);
    EXPECT_NE(csv_doc.find("row.v"), nullptr);
}

TEST(Classify, CorrectnessIsTheDefault)
{
    EXPECT_EQ(classify("sim.instructions"), StatClass::Correctness);
    EXPECT_EQ(classify("mem.l1.demand_misses"),
              StatClass::Correctness);
    EXPECT_EQ(classify("context.cst.score.mean"),
              StatClass::Correctness);
}

TEST(Classify, SegmentMatchingNeverSubstringMatches)
{
    // "instructions" contains "ns"; "latency.p50" is a latency *count*
    // histogram edge measured in cycles, not wall-clock.
    EXPECT_EQ(classify("stats.sim.instructions"),
              StatClass::Correctness);
    EXPECT_EQ(classify("mem.dram.latency.p50"),
              StatClass::Correctness);
}

TEST(Classify, TimingNamesAreBanded)
{
    EXPECT_EQ(classify("prof.replay.ns"), StatClass::Timing);
    EXPECT_EQ(classify("prof.mem.access.ns_per_call"),
              StatClass::Timing);
    EXPECT_EQ(classify("stats.prof.replay.calls"), StatClass::Timing);
    EXPECT_EQ(classify("bench.replay.insts_per_sec"),
              StatClass::Timing);
    EXPECT_EQ(classify("run.sim_seconds"), StatClass::Timing);
    // Bench-scorecard gauges: the ns_per group prefix and the
    // disabled-path rate ratios are wall-clock derived.
    EXPECT_EQ(classify("observe_ns_per_access.context"),
              StatClass::Timing);
    EXPECT_EQ(classify("profile_disabled_rate"), StatClass::Timing);
    EXPECT_EQ(classify("mem_obs_recorder_rate"), StatClass::Timing);
    EXPECT_EQ(classify("events_overhead.enabled_rate"),
              StatClass::Timing);
    // A deterministic rate formula stays exact.
    EXPECT_EQ(classify("stats.mem.l1.miss_rate"),
              StatClass::Correctness);
}

TEST(Classify, ManifestIsProvenance)
{
    EXPECT_EQ(classify("manifest.git_sha"), StatClass::Provenance);
    EXPECT_EQ(classify("manifest.insts_per_sec"),
              StatClass::Provenance);
}

TEST(Classify, LearningSubtreeIsObserverConditional)
{
    EXPECT_EQ(classify("stats.learn.policy.epsilon"),
              StatClass::Learning);
    EXPECT_EQ(classify("learn.cst.probes"), StatClass::Learning);
    EXPECT_EQ(classify("snapshots.0.accuracy"), StatClass::Learning);
    // "learned" is not the "learn" segment.
    EXPECT_EQ(classify("sim.learned_counts"), StatClass::Correctness);
}

TEST(Classify, MemObservatorySubtreeIsObserverConditional)
{
    EXPECT_EQ(classify("mem.class.l1.compulsory"), StatClass::Memory);
    EXPECT_EQ(classify("stats.mem.class.l2.pollution"),
              StatClass::Memory);
    EXPECT_EQ(classify("mem.reuse.l1.p50"), StatClass::Memory);
    EXPECT_EQ(classify("mem.shadow.compactions"), StatClass::Memory);
    EXPECT_EQ(classify("mem.pollution.l2.attributed"),
              StatClass::Memory);
    EXPECT_EQ(classify("mem.sets.l1.evictions"), StatClass::Memory);
    EXPECT_EQ(classify("mem.timeline.dram_backlog"), StatClass::Memory);
    // The hierarchy's own correctness counters live under "mem" too:
    // only the observatory subtrees are observer-conditional.
    EXPECT_EQ(classify("mem.l1.demand_misses"), StatClass::Correctness);
    EXPECT_EQ(classify("mem.dram.accesses"), StatClass::Correctness);
    // "classes" outside a "mem" prefix stays a correctness stat (the
    // Figure 9 access-class counters).
    EXPECT_EQ(classify("sim.classes.shorter_wait"),
              StatClass::Correctness);
}

TEST(DiffDocs, MissingMemObservatoryKeyIsNotedNotFailed)
{
    // The mem.class.* subtree exists only when the mem observer was
    // attached: an observed run vs an unobserved baseline stays clean.
    const FlatDoc a = parseJson(R"({"sim":{"cycles":1}})");
    const FlatDoc b = parseJson(
        R"({"sim":{"cycles":1},
            "mem":{"class":{"l1":{"compulsory":5}}}})");
    const DiffResult result = diffDocs(a, b);
    EXPECT_EQ(result.exitCode(), 0);
    EXPECT_EQ(result.only_b, 1u);
}

TEST(DiffDocs, MemObservatoryValueDriftFails)
{
    // When both runs carried the observer, taxonomy drift is a
    // determinism break, exactly like a correctness counter.
    const FlatDoc a = parseJson(
        R"({"mem":{"class":{"l1":{"pollution":40}}}})");
    const FlatDoc b = parseJson(
        R"({"mem":{"class":{"l1":{"pollution":41}}}})");
    const DiffResult result = diffDocs(a, b);
    EXPECT_EQ(result.exitCode(), 1);
    EXPECT_TRUE(result.correctness_drift);
}

TEST(DiffDocs, MissingLearningKeyIsNotedNotFailed)
{
    // The learn.* subtree exists only when the learning observer was
    // attached: comparing an observed run against an unobserved
    // baseline must stay clean...
    const FlatDoc a = parseJson(R"({"sim":{"cycles":1}})");
    const FlatDoc b = parseJson(
        R"({"sim":{"cycles":1},"learn":{"cst":{"probes":9}}})");
    const DiffResult result = diffDocs(a, b);
    EXPECT_EQ(result.exitCode(), 0);
    EXPECT_EQ(result.only_b, 1u);
}

TEST(DiffDocs, LearningValueDriftFails)
{
    // ...but when both runs recorded learning state, any drift is a
    // determinism break, exactly like a correctness counter.
    const FlatDoc a = parseJson(
        R"({"learn":{"policy":{"selections":100}}})");
    const FlatDoc b = parseJson(
        R"({"learn":{"policy":{"selections":101}}})");
    const DiffResult result = diffDocs(a, b);
    EXPECT_EQ(result.exitCode(), 1);
    EXPECT_TRUE(result.correctness_drift);
}

// Golden canned run documents: a baseline, an identical rerun with
// only wall-clock noise, a correctness drift, and a throughput
// regression.
const char *const kBaseline = R"({
  "manifest":{"config_digest":"aabb","trace_digest":"ccdd","seed":1,
              "insts_per_sec":1000000.0},
  "stats":{"sim":{"instructions":5000,"cycles":9000,"ipc":0.5555},
           "prof":{"replay":{"ns":1000000}}}})";

const char *const kRerun = R"({
  "manifest":{"config_digest":"aabb","trace_digest":"ccdd","seed":1,
              "insts_per_sec":900000.0},
  "stats":{"sim":{"instructions":5000,"cycles":9000,"ipc":0.5555},
           "prof":{"replay":{"ns":1030000}}}})";

const char *const kDrift = R"({
  "manifest":{"config_digest":"aabb","trace_digest":"ccdd","seed":1,
              "insts_per_sec":1000000.0},
  "stats":{"sim":{"instructions":5000,"cycles":9100,"ipc":0.5494},
           "prof":{"replay":{"ns":1000000}}}})";

const char *const kSlow = R"({
  "manifest":{"config_digest":"aabb","trace_digest":"ccdd","seed":1,
              "insts_per_sec":1000000.0},
  "stats":{"sim":{"instructions":5000,"cycles":9000,"ipc":0.5555},
           "prof":{"replay":{"ns":1300000}}}})";

TEST(DiffDocs, IdenticalRerunIsClean)
{
    const DiffResult result =
        diffDocs(parseJson(kBaseline), parseJson(kRerun));
    EXPECT_EQ(result.exitCode(), 0);
    EXPECT_FALSE(result.correctness_drift);
    // prof.replay.ns moved 3% — inside the 5% band.
    EXPECT_FALSE(result.timing_exceeded);
}

TEST(DiffDocs, CorrectnessDriftExitsOne)
{
    const DiffResult result =
        diffDocs(parseJson(kBaseline), parseJson(kDrift));
    EXPECT_EQ(result.exitCode(), 1);
    EXPECT_TRUE(result.correctness_drift);
    // The drifting stat is ranked first and marked failing.
    ASSERT_FALSE(result.findings.empty());
    EXPECT_TRUE(result.findings.front().failing);
    EXPECT_EQ(result.findings.front().cls, StatClass::Correctness);
}

TEST(DiffDocs, TimingBandExceededExitsTwo)
{
    const DiffResult result =
        diffDocs(parseJson(kBaseline), parseJson(kSlow));
    EXPECT_EQ(result.exitCode(), 2);
    EXPECT_TRUE(result.timing_exceeded);
    EXPECT_FALSE(result.correctness_drift);
}

TEST(DiffDocs, LaxTimingReportsButPasses)
{
    DiffOptions options;
    options.fail_on_timing = false;
    const DiffResult result =
        diffDocs(parseJson(kBaseline), parseJson(kSlow), options);
    EXPECT_EQ(result.exitCode(), 0);
    EXPECT_FALSE(result.timing_exceeded);
}

TEST(DiffDocs, FloatToleranceForgivesLastUlpNoise)
{
    const FlatDoc a = parseJson(R"({"sim":{"ipc":0.555500000001}})");
    const FlatDoc b = parseJson(R"({"sim":{"ipc":0.555500000002}})");
    EXPECT_EQ(diffDocs(a, b).exitCode(), 1);
    DiffOptions options;
    options.float_tolerance = 1e-6;
    EXPECT_EQ(diffDocs(a, b, options).exitCode(), 0);
}

TEST(DiffDocs, IntegersAreAlwaysExact)
{
    // Integral correctness stats never get the float tolerance.
    const FlatDoc a = parseJson(R"({"sim":{"cycles":1000000000}})");
    const FlatDoc b = parseJson(R"({"sim":{"cycles":1000000001}})");
    DiffOptions options;
    options.float_tolerance = 1e-6;
    EXPECT_EQ(diffDocs(a, b, options).exitCode(), 1);
}

TEST(DiffDocs, MissingCorrectnessKeyIsDrift)
{
    const FlatDoc a =
        parseJson(R"({"sim":{"cycles":1,"extra":2}})");
    const FlatDoc b = parseJson(R"({"sim":{"cycles":1}})");
    const DiffResult result = diffDocs(a, b);
    EXPECT_EQ(result.exitCode(), 1);
    EXPECT_EQ(result.only_a, 1u);
}

TEST(DiffDocs, MissingTimingKeyIsNotedNotFailed)
{
    const FlatDoc a = parseJson(
        R"({"sim":{"cycles":1},"prof":{"replay":{"ns":5}}})");
    const FlatDoc b = parseJson(R"({"sim":{"cycles":1}})");
    EXPECT_EQ(diffDocs(a, b).exitCode(), 0);
}

TEST(DiffDocs, RequireSameInputFailsOnSeedMismatch)
{
    const FlatDoc a = parseJson(
        R"({"manifest":{"seed":1},"sim":{"cycles":1}})");
    const FlatDoc b = parseJson(
        R"({"manifest":{"seed":2},"sim":{"cycles":1}})");
    EXPECT_EQ(diffDocs(a, b).exitCode(), 0);
    EXPECT_TRUE(diffDocs(a, b).provenance_mismatch);
    DiffOptions options;
    options.require_same_input = true;
    EXPECT_EQ(diffDocs(a, b, options).exitCode(), 1);
}

TEST(DiffDocs, ReportListsVerdictLine)
{
    const DiffResult result =
        diffDocs(parseJson(kBaseline), parseJson(kDrift));
    std::ostringstream out;
    result.writeReport(out);
    EXPECT_NE(out.str().find("FAIL"), std::string::npos);
    EXPECT_NE(out.str().find("CORRECTNESS DRIFT (exit 1)"),
              std::string::npos);
}

TEST(DiffDocs, IntervalCsvDocumentsDiffLikeJson)
{
    FlatDoc a;
    FlatDoc b;
    std::string error;
    ASSERT_TRUE(parseFlat("# manifest {\"seed\":1}\n"
                          "instructions,sim.ipc\n1000,0.5\n",
                          a, &error))
        << error;
    ASSERT_TRUE(parseFlat("# manifest {\"seed\":1}\n"
                          "instructions,sim.ipc\n1000,0.7\n",
                          b, &error))
        << error;
    EXPECT_EQ(diffDocs(a, b).exitCode(), 1);
}

} // namespace
} // namespace csp::diff
