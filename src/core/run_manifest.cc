#include "core/run_manifest.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <ostream>
#include <sstream>
#include <thread>

#include "core/hashing.h"

// Build-provenance fallbacks: the build system normally bakes these in
// per-source-file (see src/CMakeLists.txt); a bare compile still links.
#ifndef CSP_GIT_SHA
#define CSP_GIT_SHA "unknown"
#endif
#ifndef CSP_GIT_DIRTY
#define CSP_GIT_DIRTY 0
#endif
#ifndef CSP_BUILD_TYPE
#define CSP_BUILD_TYPE "unknown"
#endif
#ifndef CSP_CXX_COMPILER
#define CSP_CXX_COMPILER "unknown"
#endif
#ifndef CSP_CXX_FLAGS
#define CSP_CXX_FLAGS ""
#endif

namespace csp {

namespace {

/** Double knobs enter the digest by bit pattern, not by rounding. */
std::uint64_t
doubleBits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

void
addCache(WordHasher &h, const CacheConfig &c)
{
    h.add(c.size_bytes);
    h.add(c.ways);
    h.add(c.line_bytes);
    h.add(c.access_latency);
    h.add(c.mshrs);
}

} // namespace

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char ch : text) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::uint64_t
configDigest(const SystemConfig &config)
{
    WordHasher h;
    // Every knob, in declaration order. New knobs must be appended so
    // an unchanged configuration keeps its digest within one build.
    const CoreConfig &core = config.core;
    h.add(core.fetch_width);
    h.add(core.retire_width);
    h.add(core.rob_entries);
    h.add(core.iq_entries);
    h.add(core.prf_entries);
    h.add(core.lq_entries);
    h.add(core.sq_entries);

    const MemoryConfig &mem = config.memory;
    addCache(h, mem.l1d);
    addCache(h, mem.l2);
    h.add(mem.dram_latency);
    h.add(mem.dram_issue_interval);
    h.add(mem.prefetch_mshr_wait_limit);
    h.add(mem.l2_mshr_reserve);

    const ContextPrefetcherConfig &ctx = config.context;
    h.add(ctx.cst_entries);
    h.add(ctx.reducer_entries);
    h.add(ctx.history_entries);
    h.add(ctx.prefetch_queue_entries);
    h.add(ctx.block_bytes);
    h.add(ctx.full_hash_bits);
    h.add(ctx.reduced_hash_bits);
    h.add(ctx.max_degree);
    h.add(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(ctx.real_score_threshold)));
    h.add(doubleBits(ctx.epsilon_max));
    h.add(doubleBits(ctx.epsilon_min));
    h.add(ctx.softmax_exploration ? 1 : 0);
    h.add(doubleBits(ctx.softmax_temperature));
    h.add(ctx.overload_threshold);
    h.add(ctx.min_free_mshrs);
    const RewardConfig &reward = ctx.reward;
    h.add(reward.window_lo);
    h.add(reward.window_hi);
    h.add(reward.window_center);
    h.add(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(reward.peak_reward)));
    h.add(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(reward.late_penalty)));
    h.add(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(reward.early_penalty)));
    h.add(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(reward.expiry_penalty)));

    const GhbConfig &ghb = config.ghb;
    h.add(ghb.ghb_entries);
    h.add(ghb.index_entries);
    h.add(ghb.history_length);
    h.add(ghb.degree);

    const SmsConfig &sms = config.sms;
    h.add(sms.pht_entries);
    h.add(sms.agt_entries);
    h.add(sms.filter_entries);
    h.add(sms.region_bytes);
    h.add(sms.line_bytes);

    const StrideConfig &stride = config.stride;
    h.add(stride.table_entries);
    h.add(stride.degree);
    h.add(stride.confidence_threshold);

    h.add(config.seed);
    h.add(ctx.adaptive_reducer ? 1 : 0);
    h.add(ctx.exploration ? 1 : 0);
    h.add(ctx.software_hints ? 1 : 0);
    h.add(ctx.negative_rewards ? 1 : 0);
    return h.digest();
}

std::string
hexDigest(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::string
RunManifest::toJson() const
{
    std::ostringstream out;
    out.precision(6);
    out << std::fixed;
    out << "{\"schema\":\"" << jsonEscape(schema) << '"'
        << ",\"tool\":\"" << jsonEscape(tool) << '"'
        << ",\"git_sha\":\"" << jsonEscape(git_sha) << '"'
        << ",\"git_dirty\":" << (git_dirty ? "true" : "false")
        << ",\"build_type\":\"" << jsonEscape(build_type) << '"'
        << ",\"compiler\":\"" << jsonEscape(compiler) << '"'
        << ",\"cxx_flags\":\"" << jsonEscape(cxx_flags) << '"'
        << ",\"config_digest\":\"" << jsonEscape(config_digest) << '"'
        << ",\"seed\":" << seed
        << ",\"workloads\":\"" << jsonEscape(workloads) << '"'
        << ",\"prefetchers\":\"" << jsonEscape(prefetchers) << '"'
        << ",\"scale\":" << scale
        << ",\"placement\":\"" << jsonEscape(placement) << '"'
        << ",\"jobs\":" << jobs
        << ",\"trace_digest\":\"" << jsonEscape(trace_digest) << '"'
        << ",\"trace_records\":" << trace_records
        << ",\"trace_instructions\":" << trace_instructions
        << ",\"trace_accesses\":" << trace_accesses
        << ",\"hostname\":\"" << jsonEscape(hostname) << '"'
        << ",\"kernel\":\"" << jsonEscape(kernel) << '"'
        << ",\"arch\":\"" << jsonEscape(arch) << '"'
        << ",\"hw_threads\":" << hw_threads
        << ",\"start_utc\":\"" << jsonEscape(start_utc) << '"'
        << ",\"trace_gen_seconds\":" << trace_gen_seconds
        << ",\"sim_seconds\":" << sim_seconds
        << ",\"insts_per_sec\":" << insts_per_sec << '}';
    return out.str();
}

void
RunManifest::writeCsvComment(std::ostream &out) const
{
    out << "# manifest " << toJson() << '\n';
}

RunManifest
makeRunManifest(const std::string &tool, const SystemConfig &config)
{
    RunManifest m;
    m.tool = tool;
    const char *sha_env = std::getenv("CSP_GIT_SHA");
    m.git_sha = sha_env != nullptr && *sha_env != '\0' ? sha_env
                                                       : CSP_GIT_SHA;
    m.git_dirty = CSP_GIT_DIRTY != 0;
    m.build_type = CSP_BUILD_TYPE;
    m.compiler = CSP_CXX_COMPILER;
    m.cxx_flags = CSP_CXX_FLAGS;
    m.config_digest = hexDigest(configDigest(config));
    m.seed = config.seed;

    utsname uts{};
    if (uname(&uts) == 0) {
        m.hostname = uts.nodename;
        m.kernel = std::string(uts.sysname) + " " + uts.release;
        m.arch = uts.machine;
    }
    m.hw_threads = std::thread::hardware_concurrency();

    const std::time_t now =
        std::chrono::system_clock::to_time_t(
            std::chrono::system_clock::now());
    std::tm tm{};
    if (gmtime_r(&now, &tm) != nullptr) {
        char buf[32];
        std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
        m.start_utc = buf;
    }
    return m;
}

} // namespace csp
