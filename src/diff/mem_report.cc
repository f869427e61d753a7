#include "diff/mem_report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

namespace csp::diff {

namespace {

const char *const kClasses[] = {"compulsory", "pollution", "conflict",
                                "capacity"};

/** "count (share%)" cell for the taxonomy tables. */
std::string
share(double count, double total)
{
    std::ostringstream out;
    out << fmtCount(count) << " (";
    out << (total <= 0.0 ? "-"
                         : fmt(100.0 * count / total, 1) + "%")
        << ')';
    return out.str();
}

/** Key under one level's subtree: levelKey("l1", "classes.capacity"). */
std::string
levelKey(const char *level, const std::string &field)
{
    return std::string("mem.") + level + '.' + field;
}

/** Flattened-array element count: longest prefix with "<i>.<probe>". */
std::size_t
arrayCount(const FlatDoc &doc, const std::string &prefix,
           const char *probe)
{
    std::size_t n = 0;
    for (;;) {
        std::ostringstream key;
        key << prefix << '.' << n << '.' << probe;
        if (doc.find(key.str()) == nullptr)
            return n;
        ++n;
    }
}

void
renderTaxonomy(const FlatDoc &doc, const char *level, std::ostream &out)
{
    const double accesses = num(doc, levelKey(level, "accesses"));
    const double classified = num(doc, levelKey(level, "classified"));
    out << level << " miss taxonomy ("
        << fmtCount(accesses) << " accesses, "
        << fmtCount(classified) << " classified misses, miss rate "
        << (accesses <= 0.0 ? "-" : fmt(classified / accesses, 4))
        << ")\n";
    for (const char *cls : kClasses) {
        const double count =
            num(doc, levelKey(level, std::string("classes.") + cls));
        out << "  " << std::setw(11) << cls << "  " << std::setw(24)
            << share(count, classified) << "\n";
    }
}

void
renderReuse(const FlatDoc &doc, std::ostream &out)
{
    out << "reuse distance (LRU stack depth, lines)\n";
    out << "  " << std::setw(6) << "" << std::setw(12) << "samples"
        << std::setw(10) << "mean" << std::setw(10) << "p50"
        << std::setw(10) << "p90" << std::setw(10) << "p99"
        << std::setw(12) << "capacity" << "\n";
    for (const char *level : {"l1", "l2"}) {
        out << "  " << std::setw(6) << level << std::setw(12)
            << fmtCount(num(doc, levelKey(level, "reuse.count")))
            << std::setw(10)
            << fmt(num(doc, levelKey(level, "reuse.mean")), 1)
            << std::setw(10)
            << fmtCount(num(doc, levelKey(level, "reuse.p50")))
            << std::setw(10)
            << fmtCount(num(doc, levelKey(level, "reuse.p90")))
            << std::setw(10)
            << fmtCount(num(doc, levelKey(level, "reuse.p99")))
            << std::setw(12)
            << fmtCount(num(doc, levelKey(level, "capacity_lines")))
            << "\n";
    }
}

void
renderSets(const FlatDoc &doc, std::ostream &out,
           const MemReportOptions &options)
{
    out << "set pressure (hottest sets by evictions)\n";
    for (const char *level : {"l1", "l2"}) {
        const double evictions =
            num(doc, levelKey(level, "sets.evictions"));
        const double demand =
            num(doc, levelKey(level, "sets.fills_demand"));
        const double prefetch =
            num(doc, levelKey(level, "sets.fills_prefetch"));
        const double fills = demand + prefetch;
        out << "  " << level << ": " << fmtCount(evictions)
            << " evictions across "
            << fmtCount(num(doc, levelKey(level, "sets.count")))
            << " sets, demand fill share "
            << (fills <= 0.0 ? "-" : fmt(demand / fills, 4)) << "\n";
        const std::size_t top = std::min(
            options.max_sets,
            arrayCount(doc, levelKey(level, "sets.top"), "set"));
        for (std::size_t i = 0; i < top; ++i) {
            std::ostringstream prefix;
            prefix << "mem." << level << ".sets.top." << i << '.';
            out << "    set " << std::setw(6)
                << fmtCount(num(doc, prefix.str() + "set"))
                << "  evictions " << std::setw(10)
                << fmtCount(num(doc, prefix.str() + "evictions"))
                << "  demand share "
                << fmt(num(doc, prefix.str() + "demand_share"), 4)
                << "\n";
        }
    }
}

void
renderPollution(const FlatDoc &doc, std::ostream &out,
                const MemReportOptions &options)
{
    out << "pollution attribution (prefetch issuer -> displaced demand)\n";
    for (const char *level : {"l1", "l2"}) {
        const std::string prefix =
            std::string("mem.pollution.") + level + '.';
        const double attributed = num(doc, prefix + "attributed");
        const double unattributed = num(doc, prefix + "unattributed");
        out << "  " << level << ": " << fmtCount(attributed)
            << " attributed, " << fmtCount(unattributed)
            << " unattributed\n";
    }
    const std::size_t pairs = arrayCount(doc, "mem.pollution.pairs",
                                         "count");
    const std::size_t shown = std::min(options.max_pairs, pairs);
    for (std::size_t i = 0; i < shown; ++i) {
        std::ostringstream prefix;
        prefix << "mem.pollution.pairs." << i << '.';
        out << "    L" << fmtCount(num(doc, prefix.str() + "level"))
            << "  issuer " << std::setw(14)
            << text(doc, prefix.str() + "issuer_pc") << "  demand "
            << std::setw(14) << text(doc, prefix.str() + "demand_pc")
            << "  misses " << std::setw(8)
            << fmtCount(num(doc, prefix.str() + "count")) << "\n";
    }
    const double overflow = num(doc, "mem.pollution.pairs_overflow");
    if (overflow > 0.0) {
        out << "    (" << fmtCount(overflow)
            << " pollution misses beyond the pair-table bound)\n";
    }
}

void
renderPcs(const FlatDoc &doc, std::ostream &out,
          const MemReportOptions &options)
{
    const std::size_t pcs = arrayCount(doc, "mem.pc", "pc");
    if (pcs == 0)
        return;
    out << "hottest demand PCs (by L1 misses, "
        << fmtCount(num(doc, "mem.pc_tracked")) << " tracked)\n";
    out << "  " << std::setw(14) << "pc" << std::setw(12) << "accesses"
        << std::setw(12) << "l1_misses" << std::setw(12) << "l2_misses"
        << std::setw(12) << "reuse p50" << "\n";
    const std::size_t shown = std::min(options.max_pcs, pcs);
    for (std::size_t i = 0; i < shown; ++i) {
        std::ostringstream prefix;
        prefix << "mem.pc." << i << '.';
        out << "  " << std::setw(14) << text(doc, prefix.str() + "pc")
            << std::setw(12)
            << fmtCount(num(doc, prefix.str() + "accesses"))
            << std::setw(12)
            << fmtCount(num(doc, prefix.str() + "l1_misses"))
            << std::setw(12)
            << fmtCount(num(doc, prefix.str() + "l2_misses"))
            << std::setw(12)
            << fmtCount(num(doc, prefix.str() + "reuse.p50")) << "\n";
    }
}

void
renderTimeline(const FlatDoc &doc, std::ostream &out,
               const MemReportOptions &options)
{
    const std::size_t samples = arrayCount(doc, "mem.timeline",
                                           "access");
    if (samples == 0)
        return;
    out << "queue-depth timeline (" << samples << " samples, every "
        << fmtCount(num(doc, "mem.tick_insts")) << " instructions)\n";
    out << "  " << std::setw(12) << "access" << std::setw(12) << "cycle"
        << std::setw(10) << "l1_mshr" << std::setw(10) << "l2_mshr"
        << std::setw(14) << "dram_backlog" << "\n";
    const std::size_t rows = std::min(options.max_timeline, samples);
    for (std::size_t r = 0; r < rows; ++r) {
        // Evenly subsample, always keeping the final sample.
        const std::size_t i =
            rows <= 1 ? samples - 1 : r * (samples - 1) / (rows - 1);
        std::ostringstream prefix;
        prefix << "mem.timeline." << i << '.';
        out << "  " << std::setw(12)
            << fmtCount(num(doc, prefix.str() + "access"))
            << std::setw(12)
            << fmtCount(num(doc, prefix.str() + "cycle"))
            << std::setw(10)
            << fmtCount(num(doc, prefix.str() + "l1_mshr"))
            << std::setw(10)
            << fmtCount(num(doc, prefix.str() + "l2_mshr"))
            << std::setw(14)
            << fmtCount(num(doc, prefix.str() + "dram_backlog"))
            << "\n";
    }
}

void
renderShadowCost(const FlatDoc &doc, std::ostream &out)
{
    out << "shadow models\n";
    out << "  shadow hits        l1 "
        << fmtCount(num(doc, "mem.l1.shadow_hits")) << "   l2 "
        << fmtCount(num(doc, "mem.l2.shadow_hits")) << "\n";
    out << "  stack live lines   l1 "
        << fmtCount(num(doc, "mem.shadow.l1_live_lines")) << "   l2 "
        << fmtCount(num(doc, "mem.shadow.l2_live_lines"))
        << "   compactions "
        << fmtCount(num(doc, "mem.shadow.compactions")) << "\n";
}

void
renderCompare(const FlatDoc &a, const std::string &label_a,
              const FlatDoc &b, const std::string &label_b,
              std::ostream &out)
{
    out << "comparison\n";
    out << "  " << std::setw(22) << "" << std::setw(14) << "A"
        << std::setw(14) << "B" << std::setw(14) << "delta" << "\n";
    const auto row = [&](const std::string &label,
                         const std::string &name) {
        const double va = num(a, name);
        const double vb = num(b, name);
        out << "  " << std::setw(22) << label << std::setw(14)
            << fmtCount(va) << std::setw(14) << fmtCount(vb)
            << std::setw(14) << fmtCount(vb - va) << "\n";
    };
    for (const char *level : {"l1", "l2"}) {
        row(std::string(level) + " classified",
            levelKey(level, "classified"));
        for (const char *cls : kClasses) {
            row(std::string(level) + ' ' + cls,
                levelKey(level, std::string("classes.") + cls));
        }
    }
    row("pollution attributed", "mem.pollution.l1.attributed");
    out << "  A = " << label_a << "\n  B = " << label_b << "\n";
}

void
renderHeader(const FlatDoc &doc, const std::string &label,
             std::ostream &out)
{
    out << "== " << label << " ==\n";
    out << "prefetcher " << text(doc, "prefetcher") << "   workload "
        << text(doc, "manifest.workloads", "?") << "   seed "
        << text(doc, "manifest.seed", "?") << "\n";
}

void
renderOne(const FlatDoc &doc, const std::string &label,
          std::ostream &out, const MemReportOptions &options)
{
    renderHeader(doc, label, out);
    renderTaxonomy(doc, "l1", out);
    renderTaxonomy(doc, "l2", out);
    renderReuse(doc, out);
    renderSets(doc, out, options);
    renderPollution(doc, out, options);
    renderPcs(doc, out, options);
    renderTimeline(doc, out, options);
    renderShadowCost(doc, out);
}

} // namespace

bool
isMemDoc(const FlatDoc &doc, std::string *error)
{
    DocRules rules(doc);
    rules.check(text(doc, "schema", "") == "csp-mem-v2",
                "not a csp-mem-v2 document (missing or unexpected "
                "\"schema\")");
    rules.check(text(doc, "manifest.schema", "") ==
                    "csp-run-manifest-v1",
                "missing embedded csp-run-manifest-v1 manifest");
    rules.text("prefetcher");
    rules.number("mem.tick_insts");
    rules.number("mem.accesses");

    for (const char *level : {"l1", "l2"}) {
        const std::string at = levelKey(level, "");
        const double accesses = rules.number(at + "accesses");
        const double classified = rules.number(at + "classified");
        rules.number(at + "shadow_hits");
        rules.number(at + "capacity_lines");
        double classes = 0.0;
        for (const char *cls : kClasses)
            classes += rules.number(at + "classes." + cls);
        rules.check(classes == classified,
                    at + "classes do not sum to classified");
        rules.check(classified <= accesses,
                    at + "classified exceeds accesses");
        rules.check(rules.number(at + "reuse.count") <= accesses,
                    at + "reuse.count exceeds accesses");

        const double sets = rules.number(at + "sets.count");
        for (const char *key :
             {"sets.fills_demand", "sets.fills_prefetch",
              "sets.evictions"})
            rules.number(at + key);
        const std::size_t top = rules.length(at + "sets.top");
        for (std::size_t i = 0; i < top; ++i) {
            const std::string set =
                at + "sets.top." + std::to_string(i) + '.';
            const double index = rules.number(set + "set");
            rules.check(index >= 0.0 && index < sets,
                        set + "set index out of range");
            const double share = rules.number(set + "demand_share");
            rules.check(share >= 0.0 && share <= 1.0,
                        set + "demand_share outside [0, 1]");
            rules.check(rules.number(set + "evictions") <=
                            rules.number(set + "fills_demand") +
                                rules.number(set + "fills_prefetch"),
                        set + "evictions exceed fills");
        }

        const std::string pollution =
            std::string("mem.pollution.") + level + '.';
        rules.check(rules.number(pollution + "attributed") +
                            rules.number(pollution + "unattributed") ==
                        rules.number(at + "classes.pollution"),
                    pollution + "attributed + unattributed differs "
                                "from the pollution class");
    }

    const std::size_t pairs = rules.length("mem.pollution.pairs");
    for (std::size_t i = 0; i < pairs; ++i) {
        const std::string pair =
            "mem.pollution.pairs." + std::to_string(i) + '.';
        const double level = rules.number(pair + "level");
        rules.check(level == 1.0 || level == 2.0,
                    pair + "level is not 1 or 2");
        rules.check(rules.number(pair + "count") > 0.0,
                    pair + "count is not positive");
        rules.text(pair + "issuer_pc");
        rules.text(pair + "demand_pc");
    }

    const std::size_t pcs = rules.length("mem.pc");
    for (std::size_t i = 0; i < pcs; ++i) {
        const std::string pc = "mem.pc." + std::to_string(i) + '.';
        rules.text(pc + "pc");
        rules.number(pc + "l2_misses");
        rules.check(rules.number(pc + "l1_misses") <=
                        rules.number(pc + "accesses"),
                    pc + "l1_misses exceed accesses");
    }

    for (const char *key : {"mem.shadow.compactions",
                            "mem.shadow.l1_live_lines",
                            "mem.shadow.l2_live_lines"})
        rules.number(key);

    // One row per observation tick: instructions strictly increase,
    // the access position never decreases.
    const std::size_t samples = rules.length("mem.timeline");
    double last_insts = 0.0;
    double last_access = 0.0;
    for (std::size_t i = 0; i < samples; ++i) {
        const std::string sample =
            "mem.timeline." + std::to_string(i) + '.';
        for (const char *key :
             {"cycle", "l1_mshr", "l2_mshr", "dram_backlog"})
            rules.number(sample + key);
        const double insts = rules.number(sample + "instructions");
        rules.check(insts > last_insts,
                    sample + "instructions not strictly increasing");
        last_insts = insts;
        const double access = rules.number(sample + "access");
        rules.check(access >= last_access,
                    sample + "access position decreased");
        last_access = access;
    }
    return rules.result(error);
}

bool
renderMemReport(const FlatDoc &a, const std::string &label_a,
                const FlatDoc *b, const std::string &label_b,
                std::ostream &out, std::string *error,
                const MemReportOptions &options)
{
    if (!isMemDoc(a, error))
        return false;
    if (b != nullptr && !isMemDoc(*b, error))
        return false;
    renderOne(a, label_a, out, options);
    if (b != nullptr) {
        out << "\n";
        renderOne(*b, label_b, out, options);
        out << "\n";
        renderCompare(a, label_a, *b, label_b, out);
    }
    return true;
}

} // namespace csp::diff
