/** @file Learning-observatory contract tests: the LearningRecorder's
 *  distilled counters are internally consistent, the learn.json export
 *  parses and validates as csp-learn-v2, snapshots land on the
 *  simulator's observation ticks, snapshot capture is byte-identical
 *  whether runs execute serially or on a thread pool, the Perfetto
 *  rl/bandit/policy tracks follow the reward and snapshot counts, and
 *  the csplearn report renders deterministically (golden text). */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "diff/csp_diff.h"
#include "doc_goldens.h"
#include "diff/learn_report.h"
#include "obs/learning.h"
#include "obs/run_observer.h"
#include "obs/trace_events.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace csp {
namespace {

trace::TraceBuffer
makeTrace(std::uint64_t scale = 20000)
{
    workloads::WorkloadParams params;
    params.scale = scale;
    params.seed = 1;
    return workloads::Registry::builtin().create("list")->generate(
        params);
}

/** One observed context run over @p trace ticking every @p tick_insts
 *  instructions; returns the recorder after the run. */
std::unique_ptr<obs::LearningRecorder>
observedRun(const trace::TraceBuffer &trace, std::uint64_t tick_insts)
{
    SystemConfig config;
    obs::LearningRecorder::Options opts;
    opts.top_k = 8;
    auto recorder =
        std::make_unique<obs::LearningRecorder>(opts);
    obs::RunObserver observer;
    observer.learn = recorder.get();
    auto prefetcher = sim::makePrefetcher("context", config);
    sim::Simulator simulator(config);
    simulator.setSampling(tick_insts);
    simulator.setObserver(&observer);
    simulator.run(trace, *prefetcher);
    return recorder;
}

/** @p loads one-instruction loads on consecutive lines, then a compute
 *  burst of @p tail instructions (none when 0). */
trace::TraceBuffer
loadRun(std::uint64_t loads, std::uint32_t tail)
{
    trace::TraceBuffer trace;
    for (std::uint64_t i = 0; i < loads; ++i) {
        trace::TraceRecord rec;
        rec.kind = trace::InstKind::Load;
        rec.pc = 0x400;
        rec.vaddr = 0x100000 + i * 64;
        trace.push(rec);
    }
    if (tail != 0) {
        trace::TraceRecord rec;
        rec.kind = trace::InstKind::Compute;
        rec.repeat = tail;
        trace.push(rec);
    }
    return trace;
}

std::string
learnJson(const obs::LearningRecorder &recorder)
{
    std::ostringstream out;
    recorder.writeLearnJson(out, R"({"schema":"csp-run-manifest-v1"})",
                           "context");
    return out.str();
}

TEST(LearningRecorder, SnapshotSeriesIsConsistent)
{
    const trace::TraceBuffer trace = makeTrace();
    const auto recorder = observedRun(trace, 4000);
    const auto &snapshots = recorder->snapshots();
    // One snapshot per tick, the last at the run's final instruction.
    ASSERT_GE(snapshots.size(), 2u);
    EXPECT_EQ(snapshots.back().tick.instructions, trace.instructions());
    std::uint64_t last_insts = 0;
    std::uint64_t last_lookup = 0;
    for (const auto &stored : snapshots) {
        const obs::LearningSnapshot &snap = stored.snap;
        EXPECT_GT(stored.tick.instructions, last_insts);
        EXPECT_EQ(stored.tick.every, 4000u);
        last_insts = stored.tick.instructions;
        EXPECT_GT(snap.lookup, last_lookup);
        last_lookup = snap.lookup;
        EXPECT_GE(snap.epsilon, 0.0);
        EXPECT_LE(snap.epsilon, 1.0);
        EXPECT_GE(snap.accuracy, 0.0);
        EXPECT_LE(snap.accuracy, 1.0);
        EXPECT_LE(snap.cst_live_entries, snap.cst_entries);
        EXPECT_LE(snap.top_contexts.size(), 8u);
        for (const obs::SnapshotContext &ctx : snap.top_contexts) {
            ASSERT_LE(ctx.n_links, obs::kMaxLearnLinks);
            for (unsigned l = 0; l < ctx.n_links; ++l) {
                EXPECT_NE(ctx.deltas[l], 0);
                EXPECT_GE(ctx.scores[l], -128);
                EXPECT_LE(ctx.scores[l], 127);
            }
        }
    }
    EXPECT_GE(recorder->entropy(), 0.0);
    EXPECT_LE(recorder->entropy(), 1.0);
    EXPECT_EQ(snapshots.back().cumulative_reward,
              recorder->cumulativeReward());
}

TEST(LearningRecorder, LearnJsonParsesAndValidates)
{
    const trace::TraceBuffer trace = makeTrace();
    const auto recorder = observedRun(trace, 4000);
    const std::string text = learnJson(*recorder);

    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(diff::parseJsonFlat(text, doc, &error)) << error;
    EXPECT_TRUE(diff::isLearnDoc(doc, &error)) << error;

    const diff::FlatValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "csp-learn-v2");
    const diff::FlatValue *probes = doc.find("learn.cst.probes");
    ASSERT_NE(probes, nullptr);
    EXPECT_GT(probes->number, 0.0);
    const diff::FlatValue *hits = doc.find("learn.cst.probe_hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_LE(hits->number, probes->number);
    ASSERT_NE(doc.find("snapshots.0.lookup"), nullptr);
    ASSERT_NE(doc.find("snapshots.0.instructions"), nullptr);
    const diff::FlatValue *tick_insts = doc.find("learn.tick_insts");
    ASSERT_NE(tick_insts, nullptr);
    EXPECT_EQ(tick_insts->number, 4000.0);
    ASSERT_NE(doc.find("snapshots.0.top_contexts.0.key"), nullptr);
}

/** A run whose last tick lands on its final instruction: the
 *  end-of-run tick has nothing left to cover, so no duplicate final
 *  snapshot follows (learn.json requires strictly increasing snapshot
 *  instructions). */
TEST(LearningRecorder, FinishAddsNoSnapshotOnCadenceBoundary)
{
    constexpr std::uint64_t kCadence = 500;
    constexpr std::uint64_t kPeriods = 3;
    const auto recorder =
        observedRun(loadRun(kPeriods * kCadence, 0), kCadence);
    const auto &snapshots = recorder->snapshots();
    ASSERT_EQ(snapshots.size(), kPeriods);
    for (std::uint64_t k = 0; k < kPeriods; ++k) {
        EXPECT_EQ(snapshots[k].tick.instructions, (k + 1) * kCadence);
        EXPECT_EQ(snapshots[k].snap.lookup, (k + 1) * kCadence);
    }
}

/** Ticks are counted in instructions, lookups in memory accesses: a
 *  compute tail after the last grid tick gets its own end-of-run tick
 *  whose lookup count equals the previous one. learn.json's snapshot
 *  lookups are therefore non-decreasing, its instructions strictly
 *  increasing, and the document still passes every rule. */
TEST(LearningRecorder, ComputeTailRepeatsTheLookupOnTheFinalTick)
{
    constexpr std::uint64_t kCadence = 500;
    const auto recorder =
        observedRun(loadRun(2 * kCadence, 100), kCadence);
    const auto &snapshots = recorder->snapshots();
    ASSERT_EQ(snapshots.size(), 3u);
    EXPECT_EQ(snapshots[1].tick.instructions, 2 * kCadence);
    EXPECT_EQ(snapshots[2].tick.instructions, 2 * kCadence + 100);
    EXPECT_EQ(snapshots[1].snap.lookup, 2 * kCadence);
    EXPECT_EQ(snapshots[2].snap.lookup, 2 * kCadence);

    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(diff::parseJsonFlat(learnJson(*recorder), doc, &error))
        << error;
    EXPECT_TRUE(diff::isLearnDoc(doc, &error)) << error;
}

TEST(LearningRecorder, SnapshotsByteIdenticalSerialVsThreadPool)
{
    // The cspsim --jobs contract extended to the learning observatory:
    // per-run recorders never share state, so four concurrent observed
    // runs produce learn.json files byte-identical to a serial run.
    const trace::TraceBuffer trace = makeTrace(12000);
    const std::string serial =
        learnJson(*observedRun(trace, 3000));
    ASSERT_FALSE(serial.empty());

    std::vector<std::string> parallel(4);
    {
        ThreadPool pool(4);
        for (std::size_t i = 0; i < parallel.size(); ++i) {
            pool.submit([&trace, &parallel, i] {
                parallel[i] = learnJson(*observedRun(trace, 3000));
            });
        }
        pool.wait();
    }
    for (std::size_t i = 0; i < parallel.size(); ++i)
        EXPECT_EQ(parallel[i], serial) << "run " << i;
}

TEST(LearningRecorder, AttachingRecorderNeverChangesSimResults)
{
    const trace::TraceBuffer trace = makeTrace();
    SystemConfig config;
    const auto run = [&](bool observed) {
        obs::LearningRecorder recorder;
        obs::RunObserver observer;
        observer.learn = &recorder;
        auto prefetcher = sim::makePrefetcher("context", config);
        sim::Simulator simulator(config);
        if (observed)
            simulator.setObserver(&observer);
        return simulator.run(trace, *prefetcher);
    };
    const sim::RunStats plain = run(false);
    const sim::RunStats observed = run(true);
    EXPECT_EQ(plain.instructions, observed.instructions);
    EXPECT_EQ(plain.cycles, observed.cycles);
    EXPECT_EQ(plain.l1_misses, observed.l1_misses);
    EXPECT_EQ(plain.l2_demand_misses, observed.l2_demand_misses);
    EXPECT_EQ(plain.hierarchy.prefetches_issued,
              observed.hierarchy.prefetches_issued);
    for (std::size_t c = 0; c < plain.classes.size(); ++c)
        EXPECT_EQ(plain.classes[c], observed.classes[c]);
}

/** Occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(LearningRecorder, PerfettoTracksFollowRewardsAndLookups)
{
    // The recorder writes one "rl" instant per 4 reward applications
    // (expiries included, the first one sampled) and one "bandit" and
    // one "policy" counter sample per snapshot, i.e. per tick.
    const trace::TraceBuffer trace = makeTrace();
    SystemConfig config;
    std::ostringstream out;
    obs::TraceEventWriter events(out);
    obs::LearningRecorder::Options opts;
    opts.trace_sample = 4;
    obs::LearningRecorder recorder(opts, &events);
    obs::RunObserver observer;
    observer.learn = &recorder;
    auto prefetcher = sim::makePrefetcher("context", config);
    sim::Simulator simulator(config);
    simulator.setObserver(&observer);
    simulator.run(trace, *prefetcher);
    events.close();

    const stats::Report &report = simulator.lastReport();
    const auto rewards =
        static_cast<std::uint64_t>(report.value("context.pq.hits") +
                                   report.value("context.pq.expiries"));
    const auto lookups =
        static_cast<std::uint64_t>(report.value("context.lookups"));
    ASSERT_GT(rewards, 4u);
    const std::size_t snapshots = recorder.snapshots().size();
    // About kTicksPerRun grid ticks plus the end-of-run one.
    ASSERT_GE(snapshots, sim::kTicksPerRun / 2);
    ASSERT_LE(snapshots, sim::kTicksPerRun + 1);
    EXPECT_EQ(recorder.snapshots().back().snap.lookup, lookups);
    const std::string text = out.str();
    EXPECT_EQ(countOf(text, "\"cat\":\"rl\""), (rewards + 3) / 4);
    EXPECT_EQ(countOf(text, "{\"name\":\"bandit\""), snapshots);
    EXPECT_EQ(countOf(text, "{\"name\":\"policy\""), snapshots);
}

TEST(LearnReport, GoldenRendering)
{
    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(
        diff::parseJsonFlat(kGoldenLearnJson, doc, &error)) << error;

    std::ostringstream out;
    ASSERT_TRUE(diff::renderLearnReport(doc, "golden.json", nullptr,
                                        "", out, &error))
        << error;
    const std::string expected =
        "== golden.json ==\n"
        "prefetcher context   workload list   seed 7\n"
        "learning curve (2 snapshots)\n"
        "        lookup   epsilon  accuracy   entropy  cum_reward"
        "   explore  cst_live\n"
        "           100    0.2000    0.3000    0.8000         700"
        "         5        20\n"
        "           200    0.0550    0.5000    0.2500        3000"
        "        12        40\n"
        "  epsilon  █▁\n"
        "  accuracy ▁█\n"
        "  entropy  █▁\n"
        "convergence\n"
        "  epsilon  0.2000 -> 0.0550  (falling)\n"
        "  accuracy 0.3000 -> 0.5000  (rising)\n"
        "  entropy  0.8000 -> 0.2500  (falling)\n"
        "  verdict: converging: accuracy up, exploration and entropy "
        "decaying\n"
        "cst health\n"
        "  probes                     200   hit rate       0.7500\n"
        "  insert attempts            100   duplicate rate 0.1000\n"
        "  links stored                80   link churn     0.2500\n"
        "  hash collisions              2   conflict rate  0.0200\n"
        "  entry evictions              2   occupancy      0.0781\n"
        "top contexts (final snapshot)\n"
        "  ctx         11  churn   3  links 8:127 16:40\n"
        "  ctx         42  churn   0  links -4:12\n";
    EXPECT_EQ(out.str(), expected);

    // Rendering is deterministic: a second pass is byte-identical.
    std::ostringstream again;
    ASSERT_TRUE(diff::renderLearnReport(doc, "golden.json", nullptr,
                                        "", again, &error));
    EXPECT_EQ(again.str(), out.str());
}

TEST(LearnReport, CompareModeRendersBothAndDeltas)
{
    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(
        diff::parseJsonFlat(kGoldenLearnJson, doc, &error)) << error;
    std::ostringstream out;
    ASSERT_TRUE(diff::renderLearnReport(doc, "a.json", &doc, "b.json",
                                        out, &error))
        << error;
    const std::string text = out.str();
    EXPECT_NE(text.find("== a.json =="), std::string::npos);
    EXPECT_NE(text.find("== b.json =="), std::string::npos);
    EXPECT_NE(text.find("comparison"), std::string::npos);
    EXPECT_NE(text.find("final epsilon"), std::string::npos);
    EXPECT_NE(text.find("cumulative reward"), std::string::npos);
}

TEST(LearnReport, RejectsNonLearnDocuments)
{
    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(
        diff::parseJsonFlat(R"({"schema":"other"})", doc, &error));
    std::ostringstream out;
    EXPECT_FALSE(diff::renderLearnReport(doc, "x", nullptr, "", out,
                                         &error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace csp
