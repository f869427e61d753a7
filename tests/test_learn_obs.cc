/** @file Learning-observatory contract tests: the LearningRecorder's
 *  distilled counters are internally consistent, the learn.json export
 *  parses and validates as csp-learn-v1, snapshot capture is
 *  byte-identical whether runs execute serially or on a thread pool,
 *  the Perfetto rl/bandit tracks follow the reward and lookup counts,
 *  and the csplearn report renders deterministically (golden text). */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "diff/csp_diff.h"
#include "diff/learn_report.h"
#include "obs/learning.h"
#include "obs/run_observer.h"
#include "obs/trace_events.h"
#include "prefetch/context/context_prefetcher.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trace/hw_state.h"
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

/** One observed context run; returns the recorder after finish(). */
std::unique_ptr<obs::LearningRecorder>
observedRun(const trace::TraceBuffer &trace,
            std::uint64_t snapshot_every)
{
    SystemConfig config;
    obs::LearningRecorder::Options opts;
    opts.snapshot_every = snapshot_every;
    opts.top_k = 8;
    auto recorder =
        std::make_unique<obs::LearningRecorder>(opts);
    obs::RunObserver observer;
    observer.learn = recorder.get();
    auto prefetcher = sim::makePrefetcher("context", config);
    sim::Simulator simulator(config);
    simulator.setObserver(&observer);
    simulator.run(trace, *prefetcher);
    return recorder;
}

std::string
learnJson(const obs::LearningRecorder &recorder)
{
    std::ostringstream out;
    recorder.writeLearnJson(out, "", "context");
    return out.str();
}

TEST(LearningRecorder, SnapshotSeriesIsConsistent)
{
    const trace::TraceBuffer trace = makeTrace();
    const auto recorder = observedRun(trace, 4000);
    const auto &snapshots = recorder->snapshots();
    // Periodic snapshots plus the final one finish() captures.
    ASSERT_GE(snapshots.size(), 2u);
    std::uint64_t last_lookup = 0;
    for (const auto &stored : snapshots) {
        const obs::LearningSnapshot &snap = stored.snap;
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
    EXPECT_EQ(schema->text, "csp-learn-v1");
    const diff::FlatValue *probes = doc.find("learn.cst.probes");
    ASSERT_NE(probes, nullptr);
    EXPECT_GT(probes->number, 0.0);
    const diff::FlatValue *hits = doc.find("learn.cst.probe_hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_LE(hits->number, probes->number);
    ASSERT_NE(doc.find("snapshots.0.lookup"), nullptr);
    ASSERT_NE(doc.find("snapshots.0.top_contexts.0.key"), nullptr);
}

/** A run of exactly k x cadence lookups: the last periodic snapshot
 *  already sits on the final lookup, so finish() must not add a second
 *  one with the same lookup (learn.json requires strictly increasing
 *  snapshot lookups). */
TEST(LearningRecorder, FinishAddsNoSnapshotOnCadenceBoundary)
{
    constexpr std::uint64_t kCadence = 500;
    constexpr std::uint64_t kPeriods = 3;
    obs::LearningRecorder::Options opts;
    opts.snapshot_every = kCadence;
    opts.top_k = 2;
    obs::LearningRecorder recorder(opts);
    obs::RunObserver observer;
    observer.learn = &recorder;
    prefetch::ctx::ContextPrefetcher pf(ContextPrefetcherConfig{}, 1);
    pf.attach(&observer);

    trace::HwContextTracker hw;
    std::vector<prefetch::PrefetchRequest> out;
    for (std::uint64_t i = 0; i < kPeriods * kCadence; ++i) {
        trace::TraceRecord rec;
        rec.kind = trace::InstKind::Load;
        rec.pc = 0x400;
        rec.vaddr = 0x100000 + i * 64;
        const trace::ContextSnapshot ctx = hw.capture(rec);
        prefetch::AccessInfo info;
        info.seq = i;
        info.pc = rec.pc;
        info.vaddr = rec.vaddr;
        info.line_addr = rec.vaddr;
        info.free_l1_mshrs = 4;
        info.context = &ctx;
        out.clear();
        pf.observe(info, out);
        hw.update(rec);
    }
    pf.finish();

    ASSERT_EQ(pf.stats().lookups, kPeriods * kCadence);
    const auto &snapshots = recorder.snapshots();
    ASSERT_EQ(snapshots.size(), kPeriods);
    for (std::uint64_t k = 0; k < kPeriods; ++k)
        EXPECT_EQ(snapshots[k].snap.lookup, (k + 1) * kCadence);
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
    // (expiries included, the first one sampled) and one "bandit"
    // counter sample per 4096 lookups.
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
    ASSERT_GE(lookups, 4096u);
    const std::string text = out.str();
    EXPECT_EQ(countOf(text, "\"cat\":\"rl\""), (rewards + 3) / 4);
    EXPECT_EQ(countOf(text, "{\"name\":\"bandit\""), lookups / 4096);
}

// Golden csplearn rendering over a small hand-written learn.json: the
// report text is part of the tool's contract (deterministic, diffable
// across runs), so any change here is a deliberate format change.
const char *const kGoldenLearnJson = R"({
  "schema":"csp-learn-v1",
  "manifest":{"schema":"csp-run-manifest-v1","seed":7,
              "workloads":"list"},
  "prefetcher":"context",
  "learn":{
    "snapshot_every":100,"top_k":2,
    "cst":{"probes":200,"probe_hits":150,"insert_attempts":100,
           "inserts":80,"duplicates":10,"new_entries":40,
           "entry_evictions":2,"link_evictions":20,
           "tag_conflicts":2},
    "policy":{"selections":200,"real":120,"shadow":50,
              "explorations":12,"epsilon_updates":180,
              "epsilon":0.055,"accuracy":0.5,"entropy":0.25},
    "reward":{"cumulative":3000,"positive":90,"negative":30,
              "expiries":15}},
  "snapshots":[
    {"lookup":100,"cycle":1000,"epsilon":0.2,"accuracy":0.3,
     "entropy":0.8,"cumulative_reward":700,"explorations":5,
     "associations":50,"pq_hits":30,"pq_expiries":5,
     "cst_live_entries":20,"cst_entries":512,
     "top_contexts":[{"key":11,"churn":1,
                      "links":[{"delta":8,"score":90}]}]},
    {"lookup":200,"cycle":2100,"epsilon":0.055,"accuracy":0.5,
     "entropy":0.25,"cumulative_reward":3000,"explorations":12,
     "associations":90,"pq_hits":80,"pq_expiries":15,
     "cst_live_entries":40,"cst_entries":512,
     "top_contexts":[{"key":11,"churn":3,
                      "links":[{"delta":8,"score":127},
                               {"delta":16,"score":40}]},
                     {"key":42,"churn":0,
                      "links":[{"delta":-4,"score":12}]}]}]})";

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
