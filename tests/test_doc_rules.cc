/** @file The document readers enforce their schemas: isLearnDoc,
 *  isMemDoc and parseJournal each refuse a golden document with one
 *  identity broken, naming that identity, and they and cspdiff's stats
 *  JSON and interval CSV readers survive truncated or byte-flipped
 *  input by refusing it with a message or accepting a document that
 *  still renders. */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "diff/csp_diff.h"
#include "diff/learn_report.h"
#include "diff/mem_report.h"
#include "diff/sweep_report.h"
#include "doc_goldens.h"

namespace csp {
namespace {

enum class Doc
{
    Learn,
    Mem,
    Journal,
    Stats,
    Csv,
};

const char *
golden(Doc kind)
{
    switch (kind) {
      case Doc::Learn: return kGoldenLearnJson;
      case Doc::Mem: return kGoldenMemJson;
      case Doc::Journal: return kSyntheticJournal;
      case Doc::Stats: return kGoldenStatsJson;
      case Doc::Csv: return kGoldenStatsCsv;
    }
    return "";
}

/** Read @p text the way csplearn, cspmem, csptop and cspdiff do, then
 *  render it; false with *error when the reader refuses it. */
bool
readAndRender(Doc kind, const std::string &text, std::string *error)
{
    std::ostringstream out;
    if (kind == Doc::Journal) {
        diff::SweepJournal journal;
        if (!diff::parseJournal(text, journal, error))
            return false;
        // A journal without sweep_start parses; the renderers refuse
        // it on their own.
        std::string render_error;
        diff::renderSweepSummary(journal, out, &render_error);
        diff::renderSweepStatus(journal, out, &render_error);
        return true;
    }
    diff::FlatDoc doc;
    if (kind == Doc::Csv) {
        // cspdiff's report of the intact golden against what was read.
        if (!diff::parseCsvFlat(text, doc, error))
            return false;
        diff::FlatDoc golden_doc;
        diff::parseCsvFlat(kGoldenStatsCsv, golden_doc, nullptr);
        diff::diffDocs(golden_doc, doc).writeReport(out);
        return true;
    }
    if (!diff::parseJsonFlat(text, doc, error))
        return false;
    if (kind == Doc::Stats) {
        diff::FlatDoc golden_doc;
        diff::parseJsonFlat(kGoldenStatsJson, golden_doc, nullptr);
        diff::diffDocs(golden_doc, doc).writeReport(out);
        return true;
    }
    return kind == Doc::Learn
               ? diff::renderLearnReport(doc, "a", &doc, "b", out, error)
               : diff::renderMemReport(doc, "a", &doc, "b", out, error);
}

/** One schema rule, broken by a single textual edit of a golden. */
struct RuleRow
{
    const char *name;
    Doc doc;
    const char *from; ///< unique in the golden
    const char *to;
    const char *message; ///< what the refusal must name
};

std::ostream &
operator<<(std::ostream &out, const RuleRow &row)
{
    return out << row.name;
}

class DocRuleTest : public testing::TestWithParam<RuleRow>
{};

TEST_P(DocRuleTest, ReaderRefusesTheBrokenIdentity)
{
    const RuleRow &row = GetParam();
    std::string text = golden(row.doc);
    std::string error;
    ASSERT_TRUE(readAndRender(row.doc, text, &error)) << error;
    const std::size_t at = text.find(row.from);
    ASSERT_NE(at, std::string::npos) << row.from;
    ASSERT_EQ(text.find(row.from, at + 1), std::string::npos)
        << "the edit must be unique: " << row.from;
    text.replace(at, std::strlen(row.from), row.to);
    EXPECT_FALSE(readAndRender(row.doc, text, &error));
    EXPECT_NE(error.find(row.message), std::string::npos) << error;
}

const RuleRow kLearnRules[] = {
    {"manifest", Doc::Learn, R"("manifest":{"schema":"csp-run-manifest-v1")",
     R"("manifest":{"schema":"other")", "manifest"},
    {"prefetcher_name", Doc::Learn, R"("prefetcher":"context")",
     R"("prefetcher":7)", "prefetcher"},
    {"cst_key_numeric", Doc::Learn, R"("new_entries":40)",
     R"("new_entries":"40")", "learn.cst.new_entries"},
    {"policy_key_numeric", Doc::Learn, R"("epsilon_updates":180)",
     R"("epsilon_updates":null)", "learn.policy.epsilon_updates"},
    {"reward_key_numeric", Doc::Learn, R"("expiries":15)",
     R"("expiry":15)", "learn.reward.expiries"},
    {"probe_hits_within_probes", Doc::Learn, R"("probe_hits":150)",
     R"("probe_hits":201)", "probe_hits exceeds probes"},
    {"inserts_within_attempts", Doc::Learn, R"("duplicates":10)",
     R"("duplicates":21)", "inserts + duplicates exceed"},
    {"snapshots_present", Doc::Learn, R"("snapshots":[)",
     R"("snapshot":[)", "snapshots array missing or empty"},
    {"snapshot_key_present", Doc::Learn, R"("pq_hits":30,)",
     R"("pq_hit":30,)", "snapshots.0.pq_hits"},
    {"snapshot_value_finite", Doc::Learn, R"("cycle":1000,)",
     R"("cycle":-nan,)", "snapshots.0.cycle"},
    {"lookups_increase", Doc::Learn, R"("lookup":200,)",
     R"("lookup":50,)", "snapshots.1.lookup decreased"},
    {"instructions_increase", Doc::Learn, R"("instructions":2000,)",
     R"("instructions":1000,)",
     "snapshots.1.instructions not strictly increasing"},
    {"tick_insts_numeric", Doc::Learn, R"("tick_insts":1000,)",
     R"("tick_insts":null,)", "learn.tick_insts"},
    {"epsilon_in_unit_range", Doc::Learn, R"("epsilon":0.2,)",
     R"("epsilon":1.5,)", "snapshots.0.epsilon outside [0, 1]"},
    {"accuracy_in_unit_range", Doc::Learn, R"("accuracy":0.3,)",
     R"("accuracy":-0.1,)", "snapshots.0.accuracy outside [0, 1]"},
    {"entropy_in_unit_range", Doc::Learn, R"("entropy":0.8,)",
     R"("entropy":2,)", "snapshots.0.entropy outside [0, 1]"},
    {"live_within_entries", Doc::Learn, R"("cst_live_entries":20,)",
     R"("cst_live_entries":600,)", "cst_live_entries exceeds cst_entries"},
    {"context_key_numeric", Doc::Learn, R"({"key":42,)",
     R"({"key":"x",)", "snapshots.1.top_contexts.1.key"},
    {"link_delta_nonzero", Doc::Learn, R"({"delta":16,)",
     R"({"delta":0,)", "links.1.delta is 0"},
    {"link_score_in_score8", Doc::Learn, R"("score":127})",
     R"("score":128})", "score outside the Score8 range"},
};

const RuleRow kMemRules[] = {
    {"manifest", Doc::Mem, R"("manifest":{"schema":"csp-run-manifest-v1")",
     R"("manifest":{"schema":"other")", "manifest"},
    {"prefetcher_name", Doc::Mem, R"("prefetcher":"context")",
     R"("prefetcher":1)", "prefetcher"},
    {"interval_numeric", Doc::Mem, R"("tick_insts":1000,)",
     R"("tick_insts":"x",)", "mem.tick_insts"},
    {"classes_sum_to_classified", Doc::Mem, R"("conflict":60,)",
     R"("conflict":61,)", "mem.l1.classes do not sum to classified"},
    {"classified_within_accesses", Doc::Mem,
     R"("l2":{"accesses":400,)", R"("l2":{"accesses":100,)",
     "mem.l2.classified exceeds accesses"},
    {"reuse_within_accesses", Doc::Mem, R"("reuse":{"count":900,)",
     R"("reuse":{"count":1001,)", "mem.l1.reuse.count exceeds accesses"},
    {"set_index_in_range", Doc::Mem, R"({"set":9,)", R"({"set":128,)",
     "mem.l1.sets.top.1.set index out of range"},
    {"demand_share_in_unit_range", Doc::Mem, R"("demand_share":0.9375)",
     R"("demand_share":1.5)", "demand_share outside [0, 1]"},
    {"evictions_within_fills", Doc::Mem,
     R"("evictions":30,"demand_share")",
     R"("evictions":33,"demand_share")", "evictions exceed fills"},
    {"pollution_attribution_adds_up", Doc::Mem,
     R"("l1":{"attributed":30,)", R"("l1":{"attributed":31,)",
     "mem.pollution.l1.attributed + unattributed"},
    {"pair_level_valid", Doc::Mem, R"({"level":2,)", R"({"level":3,)",
     "mem.pollution.pairs.1.level"},
    {"pair_count_positive", Doc::Mem, R"("count":25})",
     R"("count":0})", "mem.pollution.pairs.0.count is not positive"},
    {"pair_pc_present", Doc::Mem, R"("demand_pc":"0x400200")",
     R"("demand_pc":5)", "mem.pollution.pairs.1.demand_pc"},
    {"pc_misses_within_accesses", Doc::Mem, R"("l1_misses":100,)",
     R"("l1_misses":401,)", "mem.pc.1.l1_misses exceed accesses"},
    {"shadow_block_present", Doc::Mem, R"("shadow":{)",
     R"("shadows":{)", "mem.shadow"},
    {"timeline_sample_numeric", Doc::Mem, R"("dram_backlog":900)",
     R"("dram_backlog":"x")", "mem.timeline.1.dram_backlog"},
    {"timeline_never_decreases", Doc::Mem, R"("access":200,)",
     R"("access":50,)", "mem.timeline.1.access position decreased"},
    {"timeline_instructions_increase", Doc::Mem,
     R"({"instructions":2000,)", R"({"instructions":1000,)",
     "mem.timeline.1.instructions not strictly increasing"},
};

const RuleRow kJournalRules[] = {
    {"t_ns_not_negative", Doc::Journal, R"("t_ns":1000000,)",
     R"("t_ns":-5,)", "line 2: t_ns missing or not an unsigned integer"},
    {"seq_not_negative", Doc::Journal, R"("t_ns":0,"seq":0,)",
     R"("t_ns":0,"seq":-1,)",
     "line 1: seq missing or not an unsigned integer"},
    {"closed_vocabulary", Doc::Journal, R"("event":"heartbeat")",
     R"("event":"heartbeet")", "line 9: unknown event type"},
    {"required_keys", Doc::Journal, R"("trace_digest":"td")",
     R"("trace_digst":"td")", "schedule missing \"trace_digest\""},
    {"required_object_key", Doc::Journal, R"("stats":{)",
     R"("statz":{)", "sweep_end missing \"stats\""},
    {"cell_end_source", Doc::Journal,
     R"("source":"cached","duration_ns":400000)",
     R"("source":"warm","duration_ns":400000)",
     "cell_end source must be cached or simulated"},
    {"digest_not_empty", Doc::Journal, R"("digest":"d2")",
     R"("digest":"")", "trace_cache has an empty digest"},
    {"seq_increases", Doc::Journal, R"("seq":8,)", R"("seq":7,)",
     "seq not strictly increasing"},
    {"t_ns_never_decreases", Doc::Journal, R"("t_ns":3400000,)",
     R"("t_ns":2400000,)", "t_ns went backwards"},
    {"sweep_start_first", Doc::Journal,
     R"({"event":"heartbeat","t_ns":2500000,"seq":8,)",
     R"({"event":"sweep_start","t_ns":2500000,"seq":8,)"
     R"("schema":"csp-events-v1","unix_ns":1,"config_digest":"c",)"
     R"("seed":7,"scale":1,"placement":"p","workloads":"w",)"
     R"("prefetchers":"p","jobs":1,"git_sha":"g",)",
     "sweep_start is not the journal's first event"},
    // What a merged journal looked like: a second sweep concatenated
    // after the first one's trim.
    {"one_sweep_per_journal", Doc::Journal, R"("evicted_bytes":123})",
     R"("evicted_bytes":123})" "\n"
     R"({"event":"sweep_start","t_ns":0,"seq":0,)"
     R"("schema":"csp-events-v1","unix_ns":2,"config_digest":"c",)"
     R"("seed":7,"scale":1,"placement":"p","workloads":"w",)"
     R"("prefetchers":"p","jobs":1,"git_sha":"g"})" "\n"
     R"({"event":"sweep_end","t_ns":1,"seq":1,)"
     R"("cells_owned":0,"cells_cached":0,"cells_simulated":0,)"
     R"("trace_cache_hits":0,"cache_read_ns":0,"cache_parse_ns":0,)"
     R"("cache_entry_bytes":0,"cache_verify_failures":0,)"
     R"("trace_gen_ns":0,"sim_ns":0,"stats":0})",
     "line 17: sweep_start is not the journal's first event"},
    {"sweep_start_schema", Doc::Journal, R"("schema":"csp-events-v1")",
     R"("schema":"csp-events-v2")", "schema is not csp-events-v1"},
    {"one_sweep_end", Doc::Journal,
     R"({"event":"evict","t_ns":5200000,"seq":14,)",
     R"({"event":"sweep_end","t_ns":5200000,"seq":14,)"
     R"("cells_owned":4,"cells_cached":2,"cells_simulated":2,)"
     R"("trace_cache_hits":1,"cache_read_ns":0,"cache_parse_ns":0,)"
     R"("cache_entry_bytes":0,"cache_verify_failures":0,)"
     R"("trace_gen_ns":0,"sim_ns":0,"stats":0,)",
     "line 15: sweep_end after sweep_end"},
    {"cell_start_once", Doc::Journal,
     R"("seq":7,"cell":3,)", R"("seq":7,"cell":0,)",
     "cell 0 started twice"},
    {"cell_end_after_start", Doc::Journal,
     R"("seq":10,"cell":2,)",
     R"("seq":10,"cell":5,)",
     "cell_end for cell 2 without cell_start"},
    {"cells_closed_at_sweep_end", Doc::Journal,
     R"({"event":"cell_end","t_ns":5000000,"seq":12,"cell":3,)",
     R"({"event":"cell_start","t_ns":5000000,"seq":12,"cell":4,)",
     "cell 3 still open at sweep_end"},
    {"only_trim_after_sweep_end", Doc::Journal,
     R"({"event":"evict","t_ns":5200000,"seq":14,)",
     R"({"event":"heartbeat","t_ns":5200000,"seq":14,)"
     R"("cells_done":4,"cells_expected":4,"cells_cached":2,)"
     R"("insts_done":1,"insts_total":1,"insts_per_sec":1,)",
     "heartbeat after sweep_end"},
    {"sweep_end_cells_owned", Doc::Journal,
     R"("seq":13,"cells_owned":4,)",
     R"("seq":13,"cells_owned":5,)",
     "sweep_end cells_owned is 5 but the journal shows 4"},
    {"sweep_end_cells_cached", Doc::Journal,
     R"("cells_cached":2,"cells_simulated":2,)",
     R"("cells_cached":1,"cells_simulated":2,)",
     "sweep_end cells_cached is 1 but the journal shows 2"},
    {"sweep_end_cells_simulated", Doc::Journal,
     R"("cells_cached":2,"cells_simulated":2,)",
     R"("cells_cached":2,"cells_simulated":3,)",
     "sweep_end cells_simulated is 3 but the journal shows 2"},
    {"one_cache_trim", Doc::Journal,
     R"({"event":"evict","t_ns":5200000,"seq":14,)"
     R"("entry":"00aa.json","bytes":123})",
     R"({"event":"cache_trim","t_ns":5200000,"seq":14,)"
     R"("max_bytes":4096,"scanned_entries":5,"scanned_bytes":4219,)"
     R"("evicted_entries":1,"evicted_bytes":123})",
     "second cache_trim"},
    {"evicts_match_trim", Doc::Journal, R"("evicted_entries":1,)",
     R"("evicted_entries":2,)",
     "cache_trim evicted_entries is 2 but the journal shows 1"},
    {"trim_within_budget", Doc::Journal, R"("max_bytes":4096,)",
     R"("max_bytes":4095,)",
     "scanned_bytes - evicted_bytes above max_bytes"},
};

std::string
rowName(const testing::TestParamInfo<RuleRow> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Learn, DocRuleTest,
                         testing::ValuesIn(kLearnRules), rowName);
INSTANTIATE_TEST_SUITE_P(Mem, DocRuleTest, testing::ValuesIn(kMemRules),
                         rowName);
INSTANTIATE_TEST_SUITE_P(Journal, DocRuleTest,
                         testing::ValuesIn(kJournalRules), rowName);

/** Journal integers parse whole: a negative or partly numeric field
 *  reads as the fallback, never wrapped to 2^64 - n or cut short. */
TEST(DocRules, JournalFieldsParseWholeIntegers)
{
    diff::SweepJournal journal;
    std::string error;
    ASSERT_TRUE(diff::parseJournal(
        R"({"event":"heartbeat","t_ns":1,"seq":0,)"
        R"("cells_done":-5,"cells_expected":4,"cells_cached":1e3,)"
        R"("insts_done":0,"insts_total":1,"insts_per_sec":0})",
        journal, &error))
        << error;
    const diff::SweepEvent &event = journal.events.front();
    EXPECT_EQ(event.u64("cells_done", 7), 7u);
    EXPECT_EQ(event.u64("cells_cached", 7), 7u);
    EXPECT_EQ(event.u64("cells_expected", 7), 4u);
}

/** A subset of the corruption matrix: every truncation and a spread of
 *  byte flips of each golden. The reader refuses the result with a
 *  message or accepts a document that still renders; it never
 *  crashes. Run under ASan+UBSan this also proves no reads out of
 *  bounds. */
TEST(DocRules, SurvivesTruncationAndByteFlips)
{
    for (const Doc kind :
         {Doc::Learn, Doc::Mem, Doc::Journal, Doc::Stats, Doc::Csv}) {
        const std::string text = golden(kind);
        std::string golden_error;
        ASSERT_TRUE(readAndRender(kind, text, &golden_error))
            << golden_error;
        const auto probe = [&](const std::string &mutated) {
            std::string error;
            if (!readAndRender(kind, mutated, &error)) {
                EXPECT_FALSE(error.empty()) << mutated;
            }
        };
        for (std::size_t size = 0; size < text.size(); ++size)
            probe(text.substr(0, size));
        for (std::size_t at = 0; at < text.size(); ++at) {
            for (const unsigned char mask : {0x01, 0x08, 0x20, 0x80}) {
                std::string flipped = text;
                flipped[at] = static_cast<char>(
                    static_cast<unsigned char>(flipped[at]) ^ mask);
                probe(flipped);
            }
        }
    }
}

} // namespace
} // namespace csp
