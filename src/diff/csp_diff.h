/**
 * @file
 * The regression observatory behind `cspdiff`: flatten two run
 * artefacts (hierarchical stats JSON, sweep/interval CSV, bench
 * scorecard JSON) into dotted-name -> value maps, classify every stat
 * as must-be-bit-identical (correctness counters and their derived
 * ratios), tolerance-banded (timing, throughput, anything measured in
 * wall-clock), or informational provenance (`manifest.*`), and rank
 * the deltas into a report with a CI-usable exit code.
 *
 * The classification encodes the repo's determinism contract: with
 * matching config/trace digests and seed, every count the simulator
 * produces is reproducible bit for bit on one machine; only wall-clock
 * is allowed to move, and only within a band.
 */

#ifndef CSP_DIFF_CSP_DIFF_H
#define CSP_DIFF_CSP_DIFF_H

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace csp::diff {

/** One flattened scalar: numeric when the source text parses fully as
 *  a number, textual otherwise. The source text is kept for reports
 *  and for exact string comparison of non-numeric values. */
struct FlatValue
{
    bool is_number = false;
    double number = 0.0;
    std::string text;
};

/** A parsed artefact: dotted-name -> value pairs in document order. */
struct FlatDoc
{
    std::vector<std::pair<std::string, FlatValue>> entries;

    /** First entry named @p name, or nullptr. */
    const FlatValue *find(const std::string &name) const;

    void add(std::string name, FlatValue value);
};

/** The number at @p name in @p doc; @p fallback when it is missing or
 *  not a number. The report writers (csplearn, cspmem) read with it. */
double num(const FlatDoc &doc, const std::string &name,
           double fallback = 0.0);

/** The source text at @p name in @p doc; @p fallback when missing. */
std::string text(const FlatDoc &doc, const std::string &name,
                 const std::string &fallback = "?");

/** @p value in fixed notation with @p precision decimals. */
std::string fmt(double value, int precision = 4);

/** @p value truncated to an integer. */
std::string fmtCount(double value);

/**
 * Flatten a JSON document: objects join keys with '.', arrays use the
 * element index as the key segment. Returns false (with *error set)
 * on malformed input. Handles everything this repo emits plus the
 * escape sequences of ordinary JSON.
 */
bool parseJsonFlat(const std::string &text, FlatDoc &out,
                   std::string *error);

/**
 * The rule checker behind the document readers (isLearnDoc, isMemDoc):
 * each call tests one rule and the first broken one keeps its message.
 * After a failure every call is a no-op that reports failure, so a
 * reader states its rules in a row and reports only the first. The
 * checker indexes the document's names, so the document must outlive
 * it.
 */
class DocRules
{
  public:
    explicit DocRules(const FlatDoc &doc);

    /** The finite number at @p key; 0 once the rule "@p key is a
     *  number" (or an earlier one) is broken. */
    double number(const std::string &key);
    /** The string at @p key; "" once it is missing or numeric. */
    std::string text(const std::string &key);
    /** Elements of the array at @p prefix: the leading indices i
     *  with a value or object at "<prefix>.<i>". Flattening keeps no
     *  trace of an empty or absent array, so both have none. */
    std::size_t length(const std::string &prefix) const;
    /** @p holds, or break the rule named by @p message. */
    bool check(bool holds, const std::string &message);
    bool ok() const { return error_.empty(); }
    /** True when every rule held; else false with *error set. */
    bool result(std::string *error) const;

  private:
    const FlatValue *find(const std::string &key) const;

    /** Every name and every dotted prefix of one (objects and array
     *  elements, mapped to nullptr), first entry winning like
     *  FlatDoc::find, so lookups need no scan of the entries. */
    std::unordered_map<std::string_view, const FlatValue *> index_;
    std::string error_;
};

/**
 * Flatten a CSV table: each cell becomes "<row key>.<column header>",
 * where the row key is the row's first cell (de-duplicated with "#N"
 * suffixes when repeated). Lines starting with '#' are comments; a
 * `# manifest <json>` comment (the provenance line interval CSVs
 * carry) is flattened under "manifest.".
 */
bool parseCsvFlat(const std::string &text, FlatDoc &out,
                  std::string *error);

/**
 * Parse @p text as whichever of the two formats it starts with
 * ('{' or '[' -> JSON, else CSV).
 */
bool parseFlat(const std::string &text, FlatDoc &out,
               std::string *error);

/** How a stat is compared. */
enum class StatClass : std::uint8_t
{
    Correctness, ///< must match bit for bit (default)
    Learning,    ///< observer-conditional "learn."/"snapshots." subtree:
                 ///< values must match when present on both sides, but
                 ///< one-sided presence is a note (the subtree only
                 ///< exists when a learning observer was attached)
    Memory,      ///< observer-conditional memory-observatory subtrees
                 ///< ("mem.class.*", "mem.reuse.*", ...): same contract
                 ///< as Learning — drift fails, one-sided presence is a
                 ///< note (only exists when a mem observer was attached)
    Timing,      ///< tolerance-banded wall-clock / throughput
    Provenance,  ///< manifest block: reported, never failing
};

/** Classification by dotted name; see the file comment. */
StatClass classify(const std::string &name);

struct DiffOptions
{
    /** Allowed relative delta for Timing stats (0.05 = 5%). */
    double timing_tolerance = 0.05;
    /** Allowed relative delta for non-integer Correctness stats —
     *  0 demands bit-identical doubles (same-machine rebuilds); CI
     *  comparing across compilers passes a last-ulp-scale epsilon. */
    double float_tolerance = 0.0;
    /** When false, out-of-band Timing deltas are reported but never
     *  fail the diff (cross-machine comparisons). */
    bool fail_on_timing = true;
    /** Fail (as correctness drift) when the two manifests disagree on
     *  config_digest, trace_digest or seed — i.e. the runs were not
     *  comparing the same experiment. */
    bool require_same_input = false;
};

/** One compared stat that differed (or exists on only one side). */
struct Finding
{
    std::string name;
    StatClass cls = StatClass::Correctness;
    bool missing_a = false; ///< only present in document B
    bool missing_b = false; ///< only present in document A
    std::string a_text;
    std::string b_text;
    double rel_delta = 0.0; ///< |a-b| / max(|a|,|b|) for numbers
    bool failing = false;
};

struct DiffResult
{
    std::vector<Finding> findings; ///< ranked: failing first, by delta
    std::size_t compared = 0;      ///< names present on both sides
    std::size_t only_a = 0;
    std::size_t only_b = 0;
    bool correctness_drift = false;
    bool timing_exceeded = false;
    bool provenance_mismatch = false; ///< config/trace digest or seed

    /** 0 = clean, 1 = correctness drift, 2 = timing band exceeded. */
    int exitCode() const;

    /** Human-readable ranked report (at most @p max_rows findings). */
    void writeReport(std::ostream &out, std::size_t max_rows = 40) const;
};

/** Compare two flattened artefacts. */
DiffResult diffDocs(const FlatDoc &a, const FlatDoc &b,
                    const DiffOptions &options = {});

} // namespace csp::diff

#endif // CSP_DIFF_CSP_DIFF_H
