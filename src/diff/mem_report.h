/**
 * @file
 * Memory-hierarchy report renderer behind `cspmem`: takes one (or two)
 * flattened mem.json documents — the miss-taxonomy / set-pressure /
 * queue-depth export cspsim writes under --mem-out — and renders the
 * story as text: per-level 3C+pollution miss tables with shares,
 * reuse-distance summaries against each level's capacity, the
 * set-pressure heatmap (top sets with demand-vs-prefetch fill shares),
 * pollution attribution (issuer PC -> demand PC pairs), the hottest
 * demand PCs, and an MSHR/DRAM queue-depth timeline summary. With a
 * second document the report appends a side-by-side comparison of the
 * two miss taxonomies — the "where did the misses go" A/B view.
 *
 * Output is deterministic for a given input (fixed precision, no
 * wall-clock), so reports can be golden-tested and diffed across runs.
 */

#ifndef CSP_DIFF_MEM_REPORT_H
#define CSP_DIFF_MEM_REPORT_H

#include <iosfwd>
#include <string>

#include "diff/csp_diff.h"

namespace csp::diff {

struct MemReportOptions
{
    /** Hot sets shown per level (the export carries its own top-K). */
    std::size_t max_sets = 4;
    /** Pollution attribution pairs shown. */
    std::size_t max_pairs = 8;
    /** Demand PCs shown. */
    std::size_t max_pcs = 8;
    /** Timeline rows shown (evenly subsampled when longer). */
    std::size_t max_timeline = 8;
};

/**
 * Check @p doc against every csp-mem-v2 rule: the schema tags, the run
 * manifest and prefetcher name, a numeric tick_insts; per level, the
 * miss classes sum to classified <= accesses, reuse samples <=
 * accesses, hot-set indices lie in [0, sets.count) with demand_share
 * in [0, 1] and evictions <= fills, and attributed + unattributed
 * pollution equals the pollution class; pollution pairs name level 1
 * or 2 with a positive count; per PC l1_misses <= accesses; the
 * shadow block is present; timeline instructions strictly increase
 * and access positions never decrease. False with *error naming the
 * first broken rule.
 */
bool isMemDoc(const FlatDoc &doc, std::string *error);

/**
 * Render the memory report for @p a (labelled @p label_a). When
 * @p b is non-null a comparison section is appended. Returns false
 * (with *error set) when a document is not a mem.json.
 */
bool renderMemReport(const FlatDoc &a, const std::string &label_a,
                     const FlatDoc *b, const std::string &label_b,
                     std::ostream &out, std::string *error,
                     const MemReportOptions &options = {});

} // namespace csp::diff

#endif // CSP_DIFF_MEM_REPORT_H
