/** @file Memory-observatory contract tests: the exact stack-distance /
 *  shadow-cache models match brute-force references bit for bit (on
 *  randomized streams and on a captured mcf replay), the 3C+pollution
 *  classes sum exactly to the run's miss counters, the mem.json export
 *  parses and validates as csp-mem-v2 and is byte-identical whether
 *  runs execute serially or on a thread pool, attaching the recorder
 *  never changes simulated results, the registry subtree mirrors the
 *  recorder's counters, and the cspmem report renders deterministically
 *  (golden text). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/stats_registry.h"
#include "core/thread_pool.h"
#include "diff/csp_diff.h"
#include "doc_goldens.h"
#include "diff/mem_report.h"
#include "obs/mem_recorder.h"
#include "obs/run_observer.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace csp {
namespace {

// ---------------------------------------------------------------------
// Brute-force naive references. Deliberately the dumbest possible
// implementations — an MRU-ordered vector for stack distance, a per-set
// recency scan for the shadow cache — so the production models (Fenwick
// tree with compaction, flat set-associative array) are checked against
// code with no shared structure.

/** O(n) LRU stack distance: an MRU-first vector of distinct lines. */
class BruteStack
{
  public:
    std::uint64_t onAccess(Addr line)
    {
        auto it = std::find(mru_.begin(), mru_.end(), line);
        std::uint64_t distance = obs::StackDistance::kNoReuse;
        if (it != mru_.end()) {
            distance =
                static_cast<std::uint64_t>(std::distance(mru_.begin(), it));
            mru_.erase(it);
        }
        mru_.insert(mru_.begin(), line);
        return distance;
    }

    std::uint64_t liveLines() const { return mru_.size(); }

  private:
    std::vector<Addr> mru_;
};

/** O(ways) set-associative LRU replay: per-set MRU-first tag vectors. */
class BruteShadow
{
  public:
    explicit BruteShadow(const CacheConfig &config)
        : ways_(config.ways),
          line_bytes_(config.line_bytes),
          sets_(config.sets()),
          mru_(config.sets())
    {}

    bool access(Addr line_addr)
    {
        const std::uint64_t set = (line_addr / line_bytes_) % sets_;
        const Addr tag = (line_addr / line_bytes_) / sets_;
        auto &ways = mru_[set];
        auto it = std::find(ways.begin(), ways.end(), tag);
        const bool hit = it != ways.end();
        if (hit)
            ways.erase(it);
        else if (ways.size() == ways_)
            ways.pop_back();
        ways.insert(ways.begin(), tag);
        return hit;
    }

  private:
    std::size_t ways_;
    std::uint64_t line_bytes_;
    std::uint64_t sets_;
    std::vector<std::vector<Addr>> mru_;
};

/** The 3C+pollution classifier, restated from its DESIGN.md definition
 *  over the brute-force models. */
class NaiveLevel
{
  public:
    explicit NaiveLevel(const CacheConfig &config)
        : capacity_lines_(config.size_bytes / config.line_bytes),
          shadow_(config)
    {}

    obs::LevelModel::Result onAccess(Addr line_addr, bool real_miss,
                                     bool line_present)
    {
        obs::LevelModel::Result result;
        result.first_touch = seen_.insert(line_addr).second;
        result.reuse_distance = stack_.onAccess(line_addr);
        const bool shadow_hit = shadow_.access(line_addr);
        if (!real_miss)
            return result;
        if (result.first_touch)
            result.cls = obs::MissClass::Compulsory;
        else if (shadow_hit && !line_present)
            result.cls = obs::MissClass::Pollution;
        else if (result.reuse_distance < capacity_lines_)
            result.cls = obs::MissClass::Conflict;
        else
            result.cls = obs::MissClass::Capacity;
        ++classes_[static_cast<std::size_t>(result.cls)];
        return result;
    }

    std::uint64_t classCount(obs::MissClass cls) const
    {
        return classes_[static_cast<std::size_t>(cls)];
    }

  private:
    std::uint64_t capacity_lines_;
    std::unordered_set<Addr> seen_;
    BruteStack stack_;
    BruteShadow shadow_;
    std::uint64_t classes_[static_cast<std::size_t>(
        obs::MissClass::Count)] = {};
};

constexpr obs::MissClass kAllClasses[] = {
    obs::MissClass::Compulsory,
    obs::MissClass::Pollution,
    obs::MissClass::Conflict,
    obs::MissClass::Capacity,
};

trace::TraceBuffer
makeTrace(const std::string &workload, std::uint64_t scale = 20000)
{
    workloads::WorkloadParams params;
    params.scale = scale;
    params.seed = 1;
    return workloads::Registry::builtin().create(workload)->generate(
        params);
}

/** One mem-observed run; returns the recorder after the run. */
struct ObservedMemRun
{
    std::unique_ptr<obs::MemRecorder> recorder;
    sim::RunStats stats;
};

ObservedMemRun
observedRun(const trace::TraceBuffer &trace,
            const std::string &prefetcher_name)
{
    SystemConfig config;
    ObservedMemRun run;
    run.recorder = std::make_unique<obs::MemRecorder>(config.memory);
    obs::RunObserver observer;
    observer.mem = run.recorder.get();
    auto prefetcher = sim::makePrefetcher(prefetcher_name, config);
    sim::Simulator simulator(config);
    simulator.setObserver(&observer);
    run.stats = simulator.run(trace, *prefetcher);
    return run;
}

std::string
memJson(const obs::MemRecorder &recorder)
{
    std::ostringstream out;
    recorder.writeMemJson(out, R"({"schema":"csp-run-manifest-v1"})",
                         "context");
    return out.str();
}

// ---------------------------------------------------------------------
// Model-level differentials on randomized streams.

TEST(StackDistance, MatchesBruteForceAcrossCompactions)
{
    obs::StackDistance fast;
    BruteStack naive;
    std::mt19937_64 rng(7);
    // Enough accesses to force index-space compactions (the Fenwick
    // index space starts at 4096 positions) and enough distinct lines
    // to force the compaction to grow the index space.
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const Addr line = (rng() % 6000) * 64;
        ASSERT_EQ(fast.onAccess(line), naive.onAccess(line))
            << "access " << i;
    }
    EXPECT_EQ(fast.liveLines(), naive.liveLines());
    EXPECT_GT(fast.compactions(), 0u);
}

TEST(ShadowCache, MatchesBruteForceLru)
{
    const CacheConfig config{4096, 4, 64, 1, 4}; // 16 sets x 4 ways
    obs::ShadowCache fast(config);
    BruteShadow naive(config);
    std::mt19937_64 rng(11);
    for (std::uint64_t i = 0; i < 50000; ++i) {
        // Skewed so some sets stay hot (evictions) and tags collide.
        const Addr line = (rng() % 512) * 64 + (rng() % 4) * 65536;
        ASSERT_EQ(fast.access(line), naive.access(line))
            << "access " << i;
    }
}

TEST(LevelModel, MatchesNaiveReferenceOnRandomStream)
{
    const CacheConfig config{8192, 2, 64, 1, 4}; // 64 ways-worth of lines
    obs::LevelModel fast(config);
    NaiveLevel naive(config);
    std::mt19937_64 rng(13);
    for (std::uint64_t i = 0; i < 30000; ++i) {
        const Addr line = (rng() % 5000) * 64;
        const bool real_miss = (rng() & 3) != 0;
        // In-flight (MSHR-merge) misses still hold the line: the
        // pollution rule must be skipped for them.
        const bool line_present = real_miss && (rng() & 7) == 0;
        const auto a = fast.onAccess(line, real_miss, line_present);
        const auto b = naive.onAccess(line, real_miss, line_present);
        ASSERT_EQ(a.first_touch, b.first_touch) << "access " << i;
        ASSERT_EQ(a.reuse_distance, b.reuse_distance) << "access " << i;
        ASSERT_EQ(a.cls, b.cls) << "access " << i;
    }
    std::uint64_t total = 0;
    for (obs::MissClass cls : kAllClasses) {
        EXPECT_EQ(fast.classCount(cls), naive.classCount(cls));
        total += fast.classCount(cls);
    }
    EXPECT_EQ(total, fast.classifiedTotal());
    EXPECT_GT(fast.classCount(obs::MissClass::Conflict), 0u);
    EXPECT_GT(fast.classCount(obs::MissClass::Capacity), 0u);
    EXPECT_GT(fast.compactions(), 0u);
}

// ---------------------------------------------------------------------
// End-to-end differential: a captured mcf replay through the naive
// reference vs the production recorder attached to a live run.

/** Tap that records the raw event stream for offline replay. */
class CaptureObserver final : public obs::MemObserver
{
  public:
    void onDemandAccess(const obs::MemAccessEvent &event) override
    {
        accesses.push_back(event);
    }
    void onFill(const obs::MemFillEvent &event) override
    {
        fills.push_back(event);
    }

    std::vector<obs::MemAccessEvent> accesses;
    std::vector<obs::MemFillEvent> fills;
};

TEST(MemRecorder, ClassifierMatchesNaiveReferenceOnMcfReplay)
{
    const trace::TraceBuffer trace = makeTrace("mcf");
    SystemConfig config;

    // Live run with the production recorder attached.
    const ObservedMemRun live = observedRun(trace, "context");

    // Second run of the same cell with a capture tap: observers never
    // perturb the simulation, so this records the same event stream the
    // recorder saw.
    CaptureObserver capture;
    {
        obs::RunObserver observer;
        observer.mem = &capture;
        auto prefetcher = sim::makePrefetcher("context", config);
        sim::Simulator simulator(config);
        simulator.setObserver(&observer);
        simulator.run(trace, *prefetcher);
    }
    ASSERT_FALSE(capture.accesses.empty());
    ASSERT_FALSE(capture.fills.empty());

    // Replay the captured demand stream through the naive reference,
    // routing levels exactly as the recorder does: L1 sees every demand
    // access, L2 sees the full L1 misses, and only Memory-served
    // accesses classify as L2 misses.
    NaiveLevel naive_l1(config.memory.l1d);
    NaiveLevel naive_l2(config.memory.l2);
    for (const obs::MemAccessEvent &event : capture.accesses) {
        const bool l1_miss = event.kind != obs::MemAccessKind::L1Hit;
        const bool l1_present =
            event.kind == obs::MemAccessKind::L1Hit ||
            event.kind == obs::MemAccessKind::L1InFlight;
        naive_l1.onAccess(event.line_addr, l1_miss, l1_present);
        if (event.kind == obs::MemAccessKind::L2Hit ||
            event.kind == obs::MemAccessKind::Memory) {
            naive_l2.onAccess(event.line_addr,
                              event.kind == obs::MemAccessKind::Memory,
                              /*line_present=*/false);
        }
    }

    for (obs::MissClass cls : kAllClasses) {
        EXPECT_EQ(live.recorder->l1Model().classCount(cls),
                  naive_l1.classCount(cls))
            << "l1 " << obs::missClassName(cls);
        EXPECT_EQ(live.recorder->l2Model().classCount(cls),
                  naive_l2.classCount(cls))
            << "l2 " << obs::missClassName(cls);
    }
}

TEST(MemRecorder, ClassesSumExactlyToRunMissCounters)
{
    // The taxonomy's core accounting identity, on a real workload for
    // both a polluting prefetcher and the baseline: every classified
    // L1 miss is one of the run's l1_misses, every classified L2 miss
    // one of its l2_demand_misses — no double counting, no leakage.
    const trace::TraceBuffer trace = makeTrace("mcf");
    for (const char *prefetcher : {"context", "stride", "none"}) {
        const ObservedMemRun run = observedRun(trace, prefetcher);
        EXPECT_EQ(run.recorder->l1Classified(), run.stats.l1_misses)
            << prefetcher;
        EXPECT_EQ(run.recorder->l2Classified(),
                  run.stats.l2_demand_misses)
            << prefetcher;
        EXPECT_EQ(run.recorder->l1Model().accesses(),
                  run.stats.demand_accesses)
            << prefetcher;
    }
}

TEST(MemRecorder, AttachingRecorderNeverChangesSimResults)
{
    const trace::TraceBuffer trace = makeTrace("mcf");
    SystemConfig config;
    const auto run = [&](bool observed) {
        obs::MemRecorder recorder(config.memory);
        obs::RunObserver observer;
        observer.mem = &recorder;
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

// ---------------------------------------------------------------------
// Export and registry contracts.

TEST(MemRecorder, MemJsonParsesAndValidates)
{
    const trace::TraceBuffer trace = makeTrace("mcf");
    const ObservedMemRun run =
        observedRun(trace, "context");
    const std::string text = memJson(*run.recorder);

    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(diff::parseJsonFlat(text, doc, &error)) << error;
    EXPECT_TRUE(diff::isMemDoc(doc, &error)) << error;

    const diff::FlatValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "csp-mem-v2");

    // The export repeats the accounting identity: per level, the four
    // class counters sum to the classified-miss count.
    for (const char *level : {"l1", "l2"}) {
        const std::string prefix = std::string("mem.") + level;
        const diff::FlatValue *classified =
            doc.find(prefix + ".classified");
        ASSERT_NE(classified, nullptr) << level;
        double sum = 0.0;
        for (const char *cls :
             {"compulsory", "pollution", "conflict", "capacity"}) {
            const diff::FlatValue *v =
                doc.find(prefix + ".classes." + cls);
            ASSERT_NE(v, nullptr) << level << ' ' << cls;
            sum += v->number;
        }
        EXPECT_EQ(sum, classified->number) << level;
    }
    ASSERT_NE(doc.find("mem.l1.reuse.p50"), nullptr);
    ASSERT_NE(doc.find("mem.l1.sets.top.0.set"), nullptr);
    ASSERT_NE(doc.find("mem.pc.0.pc"), nullptr);
    ASSERT_NE(doc.find("mem.pollution.l2.attributed"), nullptr);
    ASSERT_NE(doc.find("mem.timeline.0.access"), nullptr);
    EXPECT_GT(run.recorder->queueSamples(), 0u);
}

TEST(MemRecorder, MemJsonByteIdenticalSerialVsThreadPool)
{
    // The cspsim --jobs contract extended to the mem observatory:
    // per-run recorders never share state, so four concurrent observed
    // runs produce mem.json files byte-identical to a serial run.
    const trace::TraceBuffer trace = makeTrace("mcf", 12000);
    const std::string serial =
        memJson(*observedRun(trace, "context").recorder);
    ASSERT_FALSE(serial.empty());

    std::vector<std::string> parallel(4);
    {
        ThreadPool pool(4);
        for (std::size_t i = 0; i < parallel.size(); ++i) {
            pool.submit([&trace, &parallel, i] {
                parallel[i] =
                    memJson(*observedRun(trace, "context").recorder);
            });
        }
        pool.wait();
    }
    for (std::size_t i = 0; i < parallel.size(); ++i)
        EXPECT_EQ(parallel[i], serial) << "run " << i;
}

TEST(MemRecorder, RegistryStatsMirrorRecorderCounters)
{
    const trace::TraceBuffer trace = makeTrace("mcf");
    const ObservedMemRun run = observedRun(trace, "context");
    stats::Registry registry;
    run.recorder->registerStats(registry);
    const stats::Report report = registry.report("mem");

    for (const char *level : {"l1", "l2"}) {
        const obs::LevelModel &model = level[1] == '1'
                                           ? run.recorder->l1Model()
                                           : run.recorder->l2Model();
        for (obs::MissClass cls : kAllClasses) {
            const std::string name = std::string("mem.class.") + level +
                                     '.' + obs::missClassName(cls);
            ASSERT_TRUE(report.contains(name)) << name;
            EXPECT_EQ(report.value(name),
                      static_cast<double>(model.classCount(cls)))
                << name;
        }
        const std::string shadow =
            std::string("mem.shadow.") + level + ".hits";
        EXPECT_EQ(report.value(shadow),
                  static_cast<double>(model.shadowHits()));
    }
    EXPECT_TRUE(report.contains("mem.reuse.l1"));
    EXPECT_TRUE(report.contains("mem.sets.l2.evictions"));
    EXPECT_TRUE(report.contains("mem.pollution.l2.attributed"));
    EXPECT_EQ(report.value("mem.timeline.samples"),
              static_cast<double>(run.recorder->queueSamples()));
}

// ---------------------------------------------------------------------
// cspmem rendering (golden text over a small hand-written mem.json).

TEST(MemReport, GoldenRendering)
{
    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(diff::parseJsonFlat(kGoldenMemJson, doc, &error))
        << error;

    std::ostringstream out;
    ASSERT_TRUE(diff::renderMemReport(doc, "golden.json", nullptr, "",
                                      out, &error))
        << error;
    const std::string text = out.str();
    // Every section of the report renders from the document.
    EXPECT_NE(text.find("== golden.json =="), std::string::npos);
    EXPECT_NE(text.find("prefetcher context"), std::string::npos);
    EXPECT_NE(text.find("miss taxonomy"), std::string::npos);
    EXPECT_NE(text.find("compulsory"), std::string::npos);
    EXPECT_NE(text.find("reuse distance"), std::string::npos);
    EXPECT_NE(text.find("set pressure"), std::string::npos);
    EXPECT_NE(text.find("pollution"), std::string::npos);
    EXPECT_NE(text.find("0x400300"), std::string::npos);
    EXPECT_NE(text.find("hottest demand PCs"), std::string::npos);
    EXPECT_NE(text.find("queue-depth timeline"), std::string::npos);
    EXPECT_NE(text.find("shadow models"), std::string::npos);

    // Rendering is deterministic: a second pass is byte-identical.
    std::ostringstream again;
    ASSERT_TRUE(diff::renderMemReport(doc, "golden.json", nullptr, "",
                                      again, &error));
    EXPECT_EQ(again.str(), text);
}

TEST(MemReport, CompareModeRendersBothAndDeltas)
{
    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(diff::parseJsonFlat(kGoldenMemJson, doc, &error))
        << error;
    std::ostringstream out;
    ASSERT_TRUE(diff::renderMemReport(doc, "a.json", &doc, "b.json",
                                      out, &error))
        << error;
    const std::string text = out.str();
    EXPECT_NE(text.find("== a.json =="), std::string::npos);
    EXPECT_NE(text.find("== b.json =="), std::string::npos);
    EXPECT_NE(text.find("comparison"), std::string::npos);
}

TEST(MemReport, RejectsNonMemDocuments)
{
    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(
        diff::parseJsonFlat(R"({"schema":"other"})", doc, &error));
    std::ostringstream out;
    EXPECT_FALSE(
        diff::renderMemReport(doc, "x", nullptr, "", out, &error));
    EXPECT_FALSE(error.empty());

    diff::FlatDoc learn;
    ASSERT_TRUE(parseJsonFlat(R"({"schema":"csp-learn-v2"})", learn,
                              &error));
    EXPECT_FALSE(diff::isMemDoc(learn, &error));
}

TEST(MemReport, EndToEndRenderFromRealRun)
{
    // A real run's export renders without error and mentions the real
    // class counts — the cspmem tool is a thin shell over this path.
    const trace::TraceBuffer trace = makeTrace("mcf");
    const ObservedMemRun run = observedRun(trace, "context");
    diff::FlatDoc doc;
    std::string error;
    ASSERT_TRUE(diff::parseJsonFlat(memJson(*run.recorder), doc, &error))
        << error;
    std::ostringstream out;
    ASSERT_TRUE(diff::renderMemReport(doc, "mem.json", nullptr, "", out,
                                      &error))
        << error;
    EXPECT_NE(out.str().find("miss taxonomy"), std::string::npos);
    EXPECT_NE(
        out.str().find(std::to_string(run.recorder->l1Classified())),
        std::string::npos);
}

} // namespace
} // namespace csp
