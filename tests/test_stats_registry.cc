/** @file Unit tests for the hierarchical stats registry: registration
 *  and lookup, duplicate/conflict panics, formula stats, interval
 *  sampling semantics (deltas vs cumulative), the nested JSON export,
 *  and end-to-end consistency between the registry and RunStats. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "core/stats.h"
#include "core/stats_registry.h"
#include "prefetch/context/context_prefetcher.h"
#include "report_util.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace csp::stats {
namespace {

TEST(StatsRegistry, RegistrationAndLookup)
{
    Registry registry;
    std::uint64_t hits = 0;
    registry.counter("mem.l1.hits", &hits, "L1 hits");
    registry.counter("mem.l1.misses", [] { return std::uint64_t{7}; });
    registry.gauge("mem.l1.temp", [] { return 1.5; });

    EXPECT_EQ(registry.size(), 3u);
    const Report report = registry.report();
    EXPECT_NE(report.find("mem.l1.hits"), nullptr);
    EXPECT_EQ(report.find("mem.l1"), nullptr);
    EXPECT_EQ(report.find("mem.l1.nothere"), nullptr);

    hits = 42;
    EXPECT_DOUBLE_EQ(registry.value("mem.l1.hits"), 42.0);
    EXPECT_DOUBLE_EQ(registry.value("mem.l1.misses"), 7.0);
    EXPECT_DOUBLE_EQ(registry.value("mem.l1.temp"), 1.5);
}

TEST(StatsRegistryDeathTest, DuplicateNamePanics)
{
    Registry registry;
    std::uint64_t v = 0;
    registry.counter("sim.cycles", &v);
    EXPECT_DEATH(registry.counter("sim.cycles", &v), "duplicate");
}

TEST(StatsRegistryDeathTest, LeafVersusGroupConflictPanics)
{
    Registry registry;
    std::uint64_t v = 0;
    registry.counter("sim.ipc", &v);
    EXPECT_DEATH(registry.counter("sim.ipc.raw", &v), "conflicts");
}

TEST(StatsRegistryDeathTest, InvalidNamePanics)
{
    Registry registry;
    std::uint64_t v = 0;
    EXPECT_DEATH(registry.counter("Sim.Cycles", &v), "invalid");
    EXPECT_DEATH(registry.counter("sim..cycles", &v), "invalid");
    EXPECT_DEATH(registry.counter("", &v), "invalid");
}

TEST(StatsRegistryDeathTest, UnknownStatPanics)
{
    Registry registry;
    EXPECT_DEATH((void)registry.value("no.such.stat"), "unknown");
}

TEST(StatsRegistry, FormulaComputesScaledRatio)
{
    Registry registry;
    std::uint64_t misses = 0;
    std::uint64_t insts = 0;
    // Registered before its operands: resolution is lazy by name.
    registry.formula("sim.mpki", "mem.misses", "sim.insts", 1000.0);
    registry.counter("mem.misses", &misses);
    registry.counter("sim.insts", &insts);

    EXPECT_DOUBLE_EQ(registry.value("sim.mpki"), 0.0); // den == 0
    misses = 30;
    insts = 2000;
    EXPECT_DOUBLE_EQ(registry.value("sim.mpki"), 15.0);
}

TEST(StatsRegistry, DistributionSummary)
{
    Registry registry;
    Histogram hist(16, 16);
    registry.distribution("pq.depth", &hist);
    hist.sample(2);
    hist.sample(4);
    hist.sample(6);
    const ReportEntry *entry = registry.report().find("pq.depth");
    ASSERT_NE(entry, nullptr);
    const DistSummary &s = entry->dist;
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.mean, 4.0);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 6.0);
}

TEST(StatsRegistry, FilterMatchesDottedPrefixes)
{
    EXPECT_TRUE(Registry::matchesFilter("mem.l1.misses", ""));
    EXPECT_TRUE(Registry::matchesFilter("mem.l1.misses", "mem"));
    EXPECT_TRUE(Registry::matchesFilter("mem.l1.misses", "mem.l1"));
    EXPECT_TRUE(
        Registry::matchesFilter("mem.l1.misses", "mem.l1.misses"));
    // A prefix must end on a dot boundary, not mid-segment.
    EXPECT_FALSE(Registry::matchesFilter("mem.l1.misses", "mem.l"));
    EXPECT_FALSE(Registry::matchesFilter("mem.l1.misses", "context"));
}

TEST(StatsRegistry, ReportSurvivesSourceTeardown)
{
    Report report;
    {
        Registry registry;
        std::uint64_t v = 9;
        registry.counter("sim.cycles", &v);
        report = registry.report();
    } // registry and v are gone; the report owns its values
    ASSERT_TRUE(report.contains("sim.cycles"));
    EXPECT_DOUBLE_EQ(report.value("sim.cycles"), 9.0);
}

TEST(StatsRegistry, IntervalRowsHoldDeltasCumulativeHoldsTotals)
{
    Registry registry;
    std::uint64_t count = 0;
    double level = 0.0;
    std::uint64_t num = 0;
    registry.counter("sim.count", &count);
    registry.gauge("sim.level", [&level] { return level; });
    registry.counter("sim.num", &num);
    registry.formula("sim.rate", "sim.num", "sim.count");

    IntervalSampler sampler(registry);

    count = 10;
    num = 5;
    level = 1.0;
    sampler.sample(100);

    count = 30;
    num = 15;
    level = 2.0;
    sampler.sample(200);

    const TimeSeries &series = sampler.series();
    ASSERT_EQ(series.rows.size(), 2u);
    const int c = series.columnIndex("sim.count");
    const int g = series.columnIndex("sim.level");
    const int f = series.columnIndex("sim.rate");
    ASSERT_GE(c, 0);
    ASSERT_GE(g, 0);
    ASSERT_GE(f, 0);
    EXPECT_EQ(series.columnIndex("sim.nothere"), -1);

    // Counters: per-interval deltas. Gauges: point samples. Formulas:
    // ratios of the counter deltas (second interval: 10 / 20).
    EXPECT_DOUBLE_EQ(series.rows[0].values[c], 10.0);
    EXPECT_DOUBLE_EQ(series.rows[1].values[c], 20.0);
    EXPECT_DOUBLE_EQ(series.rows[0].values[g], 1.0);
    EXPECT_DOUBLE_EQ(series.rows[1].values[g], 2.0);
    EXPECT_DOUBLE_EQ(series.rows[0].values[f], 0.5);
    EXPECT_DOUBLE_EQ(series.rows[1].values[f], 0.5);

    // The registry itself still reads cumulative totals.
    EXPECT_DOUBLE_EQ(registry.value("sim.count"), 30.0);

    // A short final interval (the simulator's end-of-run tick) is one
    // more row of deltas.
    count = 31;
    sampler.sample(210);
    ASSERT_EQ(sampler.series().rows.size(), 3u);
    EXPECT_DOUBLE_EQ(sampler.series().rows[2].values[c], 1.0);
    EXPECT_EQ(sampler.series().rows[2].instructions, 210u);
}

TEST(StatsRegistry, SamplerFilterSelectsColumns)
{
    Registry registry;
    std::uint64_t a = 0, b = 0;
    registry.counter("mem.reads", &a);
    registry.counter("context.lookups", &b);
    IntervalSampler sampler(registry, "context");
    ASSERT_EQ(sampler.series().columns.size(), 1u);
    EXPECT_EQ(sampler.series().columns[0], "context.lookups");
}

TEST(StatsRegistry, CsvHasHeaderAndOneLinePerRow)
{
    Registry registry;
    std::uint64_t v = 0;
    registry.counter("sim.count", &v);
    IntervalSampler sampler(registry);
    v = 5;
    sampler.sample(50);
    v = 9;
    sampler.sample(100);
    std::ostringstream out;
    sampler.series().writeCsv(out);
    EXPECT_EQ(out.str(), "instructions,sim.count\n50,5\n100,4\n");
}

// ---------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------

/** Tiny recursive-descent parser for the exported JSON subset (objects
 *  and numbers), flattening nested keys back to dotted paths. */
class MiniJson
{
  public:
    explicit MiniJson(const std::string &text) : text_(text)
    {
        parseObject("");
    }

    bool ok() const { return ok_ && pos_ == text_.size(); }

    bool has(const std::string &path) const
    {
        return values_.count(path) != 0;
    }

    double
    at(const std::string &path) const
    {
        const auto it = values_.find(path);
        return it == values_.end() ? -1.0 : it->second;
    }

  private:
    void
    parseObject(const std::string &prefix)
    {
        if (!eat('{'))
            return;
        if (eat('}'))
            return;
        do {
            const std::string key = parseString();
            if (!eat(':'))
                return;
            const std::string path =
                prefix.empty() ? key : prefix + "." + key;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '{')
                parseObject(path);
            else
                values_[path] = parseNumber();
        } while (eat(','));
        if (!eat('}'))
            ok_ = false;
    }

    std::string
    parseString()
    {
        if (!eat('"')) {
            ok_ = false;
            return "";
        }
        std::string s;
        while (pos_ < text_.size() && text_[pos_] != '"')
            s += text_[pos_++];
        if (!eat('"'))
            ok_ = false;
        return s;
    }

    double
    parseNumber()
    {
        skipSpace();
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start) {
            ok_ = false;
            return 0.0;
        }
        return std::stod(text_.substr(start, pos_ - start));
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    eat(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    const std::string text_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::map<std::string, double> values_;
};

TEST(StatsRegistry, JsonRoundTripsNestedGroups)
{
    Registry registry;
    std::uint64_t misses = 123;
    std::uint64_t insts = 1000;
    Histogram hist(8, 8);
    hist.sample(3);
    registry.counter("mem.l1.misses", &misses);
    registry.counter("sim.instructions", &insts);
    registry.formula("sim.mpki", "mem.l1.misses", "sim.instructions",
                     1000.0);
    registry.distribution("context.pq.hit_depth", &hist);

    const MiniJson json(registry.toJson());
    ASSERT_TRUE(json.ok());
    EXPECT_DOUBLE_EQ(json.at("mem.l1.misses"), 123.0);
    EXPECT_DOUBLE_EQ(json.at("sim.instructions"), 1000.0);
    EXPECT_DOUBLE_EQ(json.at("sim.mpki"), 123.0);
    // Distributions export their summary as a leaf object.
    EXPECT_DOUBLE_EQ(json.at("context.pq.hit_depth.count"), 1.0);
    EXPECT_DOUBLE_EQ(json.at("context.pq.hit_depth.mean"), 3.0);
}

TEST(StatsRegistry, JsonFilterKeepsOnlyPrefix)
{
    Registry registry;
    std::uint64_t a = 1, b = 2;
    registry.counter("mem.reads", &a);
    registry.counter("context.lookups", &b);
    const MiniJson json(registry.toJson("context"));
    ASSERT_TRUE(json.ok());
    EXPECT_TRUE(json.has("context.lookups"));
    EXPECT_FALSE(json.has("mem.reads"));
}

// ---------------------------------------------------------------------
// End to end: the registry is the source RunStats is populated from.
// ---------------------------------------------------------------------

TEST(StatsRegistry, EndToEndRegistryMatchesRunStats)
{
    workloads::WorkloadParams params;
    params.scale = 60000;
    params.seed = 7;
    const trace::TraceBuffer trace =
        workloads::Registry::builtin().create("list")->generate(
            params);

    SystemConfig config;
    config.seed = 7;
    prefetch::ctx::ContextPrefetcher prefetcher(config.context,
                                                config.seed);
    sim::Simulator simulator(config);
    simulator.setSampling(10000);
    const sim::RunStats stats = simulator.run(trace, prefetcher);
    const Report &report = simulator.lastReport();

    // The acceptance groups all exist.
    ASSERT_TRUE(report.contains("sim.instructions"));
    ASSERT_TRUE(report.contains("mem.l1.misses"));
    ASSERT_TRUE(report.contains("mem.mshr.occupancy_avg"));
    ASSERT_TRUE(report.contains("context.bandit.epsilon"));

    // RunStats (the public result) agrees with the registry snapshot.
    EXPECT_DOUBLE_EQ(report.value("sim.instructions"),
                     static_cast<double>(stats.instructions));
    EXPECT_DOUBLE_EQ(report.value("sim.cycles"),
                     static_cast<double>(stats.cycles));
    EXPECT_DOUBLE_EQ(report.value("mem.l1.demand_accesses"),
                     static_cast<double>(stats.demand_accesses));
    EXPECT_DOUBLE_EQ(report.value("mem.l1.misses"),
                     static_cast<double>(stats.l1_misses));
    EXPECT_DOUBLE_EQ(report.value("mem.l2.demand_misses"),
                     static_cast<double>(stats.l2_demand_misses));
    EXPECT_DOUBLE_EQ(report.value("mem.prefetch.never_hit"),
                     static_cast<double>(stats.prefetch_never_hit));
    EXPECT_NEAR(report.value("sim.ipc"), stats.ipc(), 1e-12);
    EXPECT_NEAR(report.value("sim.l1_mpki"), stats.l1Mpki(), 1e-12);

    // Figure-9 classes sum to the demand accesses, through the
    // registry's names.
    double class_sum = 0.0;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(sim::AccessClass::Count); ++c) {
        class_sum += report.value(
            std::string("sim.class.") +
            sim::accessClassName(static_cast<sim::AccessClass>(c)));
    }
    EXPECT_DOUBLE_EQ(class_sum,
                     static_cast<double>(stats.demand_accesses));

    // Interval series: counter deltas sum back to the cumulative total.
    const TimeSeries &series = simulator.lastSeries();
    ASSERT_FALSE(series.empty());
    const int col = series.columnIndex("mem.l1.demand_accesses");
    ASSERT_GE(col, 0);
    double delta_sum = 0.0;
    for (const TimeSeries::Row &row : series.rows)
        delta_sum += row.values[col];
    EXPECT_DOUBLE_EQ(delta_sum,
                     static_cast<double>(stats.demand_accesses));
    EXPECT_EQ(series.rows.back().instructions, stats.instructions);
}

TEST(StatsRegistry, EndToEndEpsilonDecaysOnLinkedList)
{
    workloads::WorkloadParams params;
    params.scale = 20000;
    const trace::TraceBuffer trace =
        workloads::Registry::builtin().create("list")->generate(
            params);

    SystemConfig config;
    prefetch::ctx::ContextPrefetcher prefetcher(config.context,
                                                config.seed);
    sim::Simulator simulator(config);
    simulator.setSampling(300, "context.bandit");
    simulator.run(trace, prefetcher);

    const TimeSeries &series = simulator.lastSeries();
    const int eps = series.columnIndex("context.bandit.epsilon");
    ASSERT_GE(eps, 0);
    ASSERT_GE(series.rows.size(), 20u);

    // The exploration rate starts at epsilon_max (untrained bandit)
    // and decays as accuracy converges; after warm-up it never climbs
    // back towards the untrained level.
    const double first = series.rows.front().values[eps];
    EXPECT_NEAR(first, config.context.epsilon_max, 0.02);
    double post_warmup_max = 0.0;
    for (std::size_t i = 10; i < series.rows.size(); ++i) {
        post_warmup_max =
            std::max(post_warmup_max, series.rows[i].values[eps]);
    }
    EXPECT_LT(post_warmup_max, first);
}

TEST(StatsRegistry, EndToEndRunsAreDeterministic)
{
    workloads::WorkloadParams params;
    params.scale = 30000;
    params.seed = 3;
    const trace::TraceBuffer trace =
        workloads::Registry::builtin().create("list")->generate(
            params);

    SystemConfig config;
    config.seed = 3;
    std::string first;
    for (int i = 0; i < 2; ++i) {
        prefetch::ctx::ContextPrefetcher prefetcher(config.context,
                                                    config.seed);
        sim::Simulator simulator(config);
        simulator.run(trace, prefetcher);
        const std::string json =
            reportJsonWithoutProf(simulator.lastReport());
        if (i == 0)
            first = json;
        else
            EXPECT_EQ(first, json);
    }
}

} // namespace
} // namespace csp::stats
