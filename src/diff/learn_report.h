/**
 * @file
 * Learning-curve report renderer behind `csplearn`: takes one (or two)
 * flattened learn.json documents — the periodic learning-state
 * snapshots cspsim writes under --learn-out — and renders the
 * convergence story as text: per-snapshot learning-curve table with
 * sparklines, convergence diagnostics (did epsilon decay, did policy
 * entropy decay, did accuracy rise, and do they agree), CST-health
 * counters, and the final snapshot's top contexts with their per-arm
 * scores. With a second document the report appends a side-by-side
 * comparison of the final learning states.
 *
 * Output is deterministic for a given input (fixed precision, no
 * wall-clock), so reports can be golden-tested and diffed across runs.
 */

#ifndef CSP_DIFF_LEARN_REPORT_H
#define CSP_DIFF_LEARN_REPORT_H

#include <iosfwd>
#include <string>

#include "diff/csp_diff.h"

namespace csp::diff {

struct LearnReportOptions
{
    /** Learning-curve rows shown (evenly subsampled when the file has
     *  more snapshots than this). */
    std::size_t max_rows = 16;
    /** Top contexts of the final snapshot shown. */
    std::size_t max_contexts = 8;
};

/**
 * Check @p doc against every csp-learn-v2 rule: the schema tags, the
 * run manifest and prefetcher name, a numeric tick_insts,
 * numeric learn.cst/policy/reward counters with probe_hits <= probes
 * and inserts + duplicates <= insert_attempts, and a non-empty
 * snapshot series whose instructions strictly increase, whose lookups
 * never decrease, whose epsilon/accuracy/entropy stay in [0, 1],
 * whose cst_live_entries <= cst_entries, and whose top-context links
 * have a non-zero delta and a Score8 score. False with *error naming
 * the first broken rule.
 */
bool isLearnDoc(const FlatDoc &doc, std::string *error);

/**
 * Render the learning report for @p a (labelled @p label_a). When
 * @p b is non-null a comparison section is appended. Returns false
 * (with *error set) when a document is not a learn.json.
 */
bool renderLearnReport(const FlatDoc &a, const std::string &label_a,
                       const FlatDoc *b, const std::string &label_b,
                       std::ostream &out, std::string *error,
                       const LearnReportOptions &options = {});

} // namespace csp::diff

#endif // CSP_DIFF_LEARN_REPORT_H
