/** @file The golden documents the readers are tested against: a
 *  learn.json, a mem.json and a sweep journal, each valid under every
 *  rule of its schema, a --stats-out document and an interval CSV.
 *  Shared by the
 *  renderer goldens and by the rule and corruption tests in
 *  test_doc_rules.cc. */

#ifndef CSP_TESTS_DOC_GOLDENS_H
#define CSP_TESTS_DOC_GOLDENS_H

namespace csp {

/** A small hand-written learn.json. The csplearn rendering of it is
 *  golden: the report text is part of the tool's contract
 *  (deterministic, diffable across runs), so any change to it is a
 *  deliberate format change. */
inline constexpr char kGoldenLearnJson[] = R"({
  "schema":"csp-learn-v2",
  "manifest":{"schema":"csp-run-manifest-v1","seed":7,
              "workloads":"list"},
  "prefetcher":"context",
  "learn":{
    "tick_insts":1000,"top_k":2,
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
    {"instructions":1000,"lookup":100,"cycle":1000,"epsilon":0.2,"accuracy":0.3,
     "entropy":0.8,"cumulative_reward":700,"explorations":5,
     "associations":50,"pq_hits":30,"pq_expiries":5,
     "cst_live_entries":20,"cst_entries":512,
     "top_contexts":[{"key":11,"churn":1,
                      "links":[{"delta":8,"score":90}]}]},
    {"instructions":2000,"lookup":200,"cycle":2100,"epsilon":0.055,"accuracy":0.5,
     "entropy":0.25,"cumulative_reward":3000,"explorations":12,
     "associations":90,"pq_hits":80,"pq_expiries":15,
     "cst_live_entries":40,"cst_entries":512,
     "top_contexts":[{"key":11,"churn":3,
                      "links":[{"delta":8,"score":127},
                               {"delta":16,"score":40}]},
                     {"key":42,"churn":0,
                      "links":[{"delta":-4,"score":12}]}]}]})";

/** A small hand-written mem.json, golden for the cspmem rendering. */
inline constexpr char kGoldenMemJson[] = R"({
  "schema":"csp-mem-v2",
  "manifest":{"schema":"csp-run-manifest-v1","seed":7,
              "workloads":"mcf"},
  "prefetcher":"context",
  "mem":{
    "tick_insts":1000,"accesses":1000,
    "l1":{"accesses":1000,"classified":400,
          "classes":{"compulsory":100,"pollution":40,"conflict":60,
                     "capacity":200},
          "shadow_hits":500,"capacity_lines":1024,
          "reuse":{"count":900,"mean":80.5,"p50":48,"p90":1024,
                   "p99":4096,"buckets":[10,20,30]},
          "sets":{"count":128,"fills_demand":300,"fills_prefetch":100,
                  "evictions":350,
                  "top":[{"set":5,"fills_demand":40,"fills_prefetch":24,
                          "evictions":60,"demand_share":0.625},
                         {"set":9,"fills_demand":30,"fills_prefetch":2,
                          "evictions":30,"demand_share":0.9375}]}},
    "l2":{"accesses":400,"classified":120,
          "classes":{"compulsory":100,"pollution":8,"conflict":2,
                     "capacity":10},
          "shadow_hits":250,"capacity_lines":32768,
          "reuse":{"count":300,"mean":512.0,"p50":256,"p90":8192,
                   "p99":32768,"buckets":[1,2,3]},
          "sets":{"count":2048,"fills_demand":110,"fills_prefetch":90,
                  "evictions":150,
                  "top":[{"set":17,"fills_demand":9,"fills_prefetch":3,
                          "evictions":12,"demand_share":0.75}]}},
    "pc":[{"pc":"0x400100","accesses":600,"l1_misses":300,
           "l2_misses":100,
           "reuse":{"count":550,"mean":90.0,"p50":64,"p90":2048,
                    "p99":8192,"buckets":[5,6]}},
          {"pc":"0x400200","accesses":400,"l1_misses":100,
           "l2_misses":20,
           "reuse":{"count":350,"mean":30.0,"p50":16,"p90":128,
                    "p99":512,"buckets":[7]}}],
    "pc_tracked":2,"pc_other_accesses":0,
    "pollution":{"l1":{"attributed":30,"unattributed":10},
                 "l2":{"attributed":6,"unattributed":2},
                 "pairs_overflow":0,
                 "pairs":[{"level":1,"issuer_pc":"0x400300",
                           "demand_pc":"0x400100","count":25},
                          {"level":2,"issuer_pc":"0x400300",
                           "demand_pc":"0x400200","count":6}]},
    "shadow":{"compactions":3,"l1_live_lines":900,
              "l2_live_lines":700},
    "timeline":[{"instructions":1000,"access":100,"cycle":1500,
                 "l1_mshr":2,"l2_mshr":5,"dram_backlog":120},
                {"instructions":2000,"access":200,"cycle":3100,
                 "l1_mshr":4,"l2_mshr":20,"dram_backlog":900}]}})";

/** A fixed sweep journal with known timings: csptop's summary and
 *  status goldens over it are exact, which is only possible because
 *  the renderers never consult the clock. Two workloads x two
 *  prefetchers, half cached, one worker idle-ish, a post-sweep trim. */
inline constexpr char kSyntheticJournal[] =
    R"({"event":"sweep_start","t_ns":0,"seq":0,"schema":"csp-events-v1","unix_ns":1000000000000,"config_digest":"cafe01234567","seed":7,"scale":1000,"placement":"rand","workloads":"alpha,beta","prefetchers":"none,context","jobs":2,"git_sha":"deadbeef"}
{"event":"trace_gen","t_ns":1000000,"seq":1,"workload":"alpha","digest":"d1","records":10,"insts":100000,"accesses":30,"duration_ns":800000,"cached":1,"worker":0}
{"event":"trace_cache","t_ns":1200000,"seq":2,"workload":"beta","digest":"d2","records":10,"insts":100000,"worker":1}
{"event":"schedule","t_ns":1300000,"seq":3,"cells_total":4,"cells_owned":4,"insts_owned":400000,"trace_digest":"td"}
{"event":"cell_start","t_ns":1400000,"seq":4,"cell":0,"workload":"alpha","prefetcher":"none","worker":0}
{"event":"cell_start","t_ns":1400000,"seq":5,"cell":1,"workload":"alpha","prefetcher":"context","worker":1}
{"event":"cell_end","t_ns":1900000,"seq":6,"cell":1,"workload":"alpha","prefetcher":"context","worker":1,"source":"cached","duration_ns":500000,"read_ns":200000,"parse_ns":250000,"bytes":900,"insts":100000}
{"event":"cell_start","t_ns":2000000,"seq":7,"cell":3,"workload":"beta","prefetcher":"context","worker":1}
{"event":"heartbeat","t_ns":2500000,"seq":8,"cells_done":1,"cells_expected":4,"cells_cached":1,"insts_done":100000,"insts_total":400000,"insts_per_sec":50000000}
{"event":"cell_end","t_ns":3400000,"seq":9,"cell":0,"workload":"alpha","prefetcher":"none","worker":0,"source":"simulated","duration_ns":2000000,"verify_failed":0,"insts":100000}
{"event":"cell_start","t_ns":3500000,"seq":10,"cell":2,"workload":"beta","prefetcher":"none","worker":0}
{"event":"cell_end","t_ns":3900000,"seq":11,"cell":2,"workload":"beta","prefetcher":"none","worker":0,"source":"cached","duration_ns":400000,"read_ns":100000,"parse_ns":250000,"bytes":800,"insts":100000}
{"event":"cell_end","t_ns":5000000,"seq":12,"cell":3,"workload":"beta","prefetcher":"context","worker":1,"source":"simulated","duration_ns":3000000,"verify_failed":0,"insts":100000}
{"event":"sweep_end","t_ns":5100000,"seq":13,"cells_owned":4,"cells_cached":2,"cells_simulated":2,"trace_cache_hits":1,"cache_read_ns":300000,"cache_parse_ns":500000,"cache_entry_bytes":1700,"cache_verify_failures":0,"trace_gen_ns":800000,"sim_ns":5000000,"stats":{"sweep":{"cells_owned":4}}}
{"event":"evict","t_ns":5200000,"seq":14,"entry":"00aa.json","bytes":123}
{"event":"cache_trim","t_ns":5300000,"seq":15,"max_bytes":4096,"scanned_entries":5,"scanned_bytes":4219,"evicted_entries":1,"evicted_bytes":123}
)";

/** A small --stats-out document (cspsim, list with stride, scale 2000,
 *  seed 7), cut down to one or two stats per group: the nested JSON
 *  cspdiff reads through parseJsonFlat. It has no schema of its own
 *  beyond the run manifest, so the corruption matrix is its check. */
inline constexpr char kGoldenStatsJson[] = R"({
  "manifest":{"schema":"csp-run-manifest-v1","tool":"cspsim",
              "config_digest":"0b2ab3abcc4fbab0","seed":7,
              "workloads":"list","prefetchers":"stride","scale":2000,
              "trace_digest":"2d3792083385ba83","trace_records":6144,
              "trace_gen_seconds":0.00069,"sim_seconds":0.001837},
  "stats":{
    "mem":{"l1":{"demand_accesses":2048,"miss_rate":0.04052734375,
                 "misses":83}},
    "prefetch":{"inflight":0},
    "sim":{"class":{"hit-older-demand":1965,"miss-not-prefetched":83},
           "cycles":30656,"instructions":10240,"ipc":0.334029227557}}})";

/** A small --stats-csv interval series (cspsim, list with stride,
 *  scale 2000, seed 7, --stats-interval 4000 --stats-filter sim), cut
 *  down to a few columns: the CSV cspdiff reads through parseCsvFlat.
 *  One row per observation tick, the last at the final instruction. */
inline constexpr char kGoldenStatsCsv[] =
    R"(# manifest {"schema":"csp-run-manifest-v1","tool":"cspsim",)"
    R"("config_digest":"0b2ab3abcc4fbab0","seed":7,"workloads":"list",)"
    R"("prefetchers":"stride","scale":2000,)"
    R"("trace_digest":"2d3792083385ba83"}
instructions,sim.instructions,sim.cycles,sim.ipc,sim.class.miss-not-prefetched,sim.class.hit-older-demand
4001,4001,28162,0.142070875648,83,718
8001,4000,1600,2.5,0,800
10240,2239,894,2.50447427293,0,447
)";

} // namespace csp

#endif // CSP_TESTS_DOC_GOLDENS_H
