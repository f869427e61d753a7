#include "diff/learn_report.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

namespace csp::diff {

namespace {

/** Counters every learn summary carries, under "learn.". */
const char *const kSummaryKeys[] = {
    "cst.probes", "cst.probe_hits", "cst.insert_attempts",
    "cst.inserts", "cst.duplicates", "cst.new_entries",
    "cst.entry_evictions", "cst.link_evictions", "cst.tag_conflicts",
    "policy.selections", "policy.real", "policy.shadow",
    "policy.explorations", "policy.epsilon_updates", "policy.epsilon",
    "policy.accuracy", "policy.entropy", "reward.cumulative",
    "reward.positive", "reward.negative", "reward.expiries"};

/** Numbers every learning-state snapshot carries. */
const char *const kSnapshotKeys[] = {
    "instructions", "lookup", "cycle", "epsilon", "accuracy", "entropy",
    "cumulative_reward", "explorations", "associations", "pq_hits",
    "pq_expiries", "cst_live_entries", "cst_entries"};

std::string
snapKey(std::size_t snap, const char *field)
{
    std::ostringstream name;
    name << "snapshots." << snap << '.' << field;
    return name.str();
}

/** Snapshots present in the flattened document (array length). */
std::size_t
snapshotCount(const FlatDoc &doc)
{
    std::size_t n = 0;
    while (doc.find(snapKey(n, "lookup")) != nullptr)
        ++n;
    return n;
}

/** One series across all snapshots, e.g. field = "epsilon". */
std::vector<double>
series(const FlatDoc &doc, std::size_t snaps, const char *field)
{
    std::vector<double> out;
    out.reserve(snaps);
    for (std::size_t i = 0; i < snaps; ++i)
        out.push_back(num(doc, snapKey(i, field)));
    return out;
}

/** Eight-level unicode sparkline, scaled to the series' own range. */
std::string
spark(const std::vector<double> &values)
{
    static const char *kLevels[] = {"▁", "▂", "▃",
                                    "▄", "▅", "▆",
                                    "▇", "█"};
    if (values.empty())
        return "";
    double lo = values[0];
    double hi = values[0];
    for (const double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double span = hi - lo;
    std::string out;
    for (const double v : values) {
        const int level =
            span <= 0.0 ? 0
                        : std::min(7, static_cast<int>((v - lo) / span *
                                                       7.999));
        out += kLevels[level];
    }
    return out;
}

std::string
ratio(double numerator, double denominator, int precision = 4)
{
    return denominator <= 0.0 ? "-"
                              : fmt(numerator / denominator, precision);
}

/** Direction of a series endpoint-to-endpoint, with noise floor. */
enum class Trend
{
    Falling,
    Flat,
    Rising,
};

Trend
trend(const std::vector<double> &values, double noise)
{
    if (values.size() < 2)
        return Trend::Flat;
    const double delta = values.back() - values.front();
    if (delta < -noise)
        return Trend::Falling;
    if (delta > noise)
        return Trend::Rising;
    return Trend::Flat;
}

const char *
trendWord(Trend t)
{
    switch (t) {
      case Trend::Falling: return "falling";
      case Trend::Flat: return "flat";
      case Trend::Rising: return "rising";
    }
    return "?";
}

void
renderCurve(const FlatDoc &doc, std::size_t snaps, std::ostream &out,
            const LearnReportOptions &options)
{
    out << "learning curve (" << snaps << " snapshots)\n";
    out << "  " << std::setw(12) << "lookup" << std::setw(10)
        << "epsilon" << std::setw(10) << "accuracy" << std::setw(10)
        << "entropy" << std::setw(12) << "cum_reward" << std::setw(10)
        << "explore" << std::setw(10) << "cst_live" << "\n";
    const std::size_t rows = std::min(snaps, options.max_rows);
    for (std::size_t r = 0; r < rows; ++r) {
        // Evenly subsample, always keeping the final snapshot.
        const std::size_t i =
            rows <= 1 ? snaps - 1 : r * (snaps - 1) / (rows - 1);
        out << "  " << std::setw(12)
            << fmtCount(num(doc, snapKey(i, "lookup"))) << std::setw(10)
            << fmt(num(doc, snapKey(i, "epsilon"))) << std::setw(10)
            << fmt(num(doc, snapKey(i, "accuracy"))) << std::setw(10)
            << fmt(num(doc, snapKey(i, "entropy"))) << std::setw(12)
            << fmtCount(num(doc, snapKey(i, "cumulative_reward")))
            << std::setw(10)
            << fmtCount(num(doc, snapKey(i, "explorations")))
            << std::setw(10)
            << fmtCount(num(doc, snapKey(i, "cst_live_entries")))
            << "\n";
    }
    out << "  epsilon  " << spark(series(doc, snaps, "epsilon"))
        << "\n";
    out << "  accuracy " << spark(series(doc, snaps, "accuracy"))
        << "\n";
    out << "  entropy  " << spark(series(doc, snaps, "entropy"))
        << "\n";
}

void
renderConvergence(const FlatDoc &doc, std::size_t snaps,
                  std::ostream &out)
{
    const std::vector<double> eps = series(doc, snaps, "epsilon");
    const std::vector<double> acc = series(doc, snaps, "accuracy");
    const std::vector<double> ent = series(doc, snaps, "entropy");
    const Trend eps_t = trend(eps, 0.005);
    const Trend acc_t = trend(acc, 0.01);
    const Trend ent_t = trend(ent, 0.01);
    out << "convergence\n";
    if (!eps.empty()) {
        out << "  epsilon  " << fmt(eps.front()) << " -> "
            << fmt(eps.back()) << "  (" << trendWord(eps_t) << ")\n";
        out << "  accuracy " << fmt(acc.front()) << " -> "
            << fmt(acc.back()) << "  (" << trendWord(acc_t) << ")\n";
        out << "  entropy  " << fmt(ent.front()) << " -> "
            << fmt(ent.back()) << "  (" << trendWord(ent_t) << ")\n";
    }
    // The adaptive policy ties epsilon to (1 - accuracy), so a healthy
    // run shows accuracy rising while epsilon and entropy decay
    // together: the policy is both getting it right and becoming
    // certain. Entropy falling without accuracy rising means score
    // saturation, not learning.
    const char *verdict = "inconclusive (too few snapshots)";
    if (snaps >= 2) {
        const bool exploit = eps_t != Trend::Rising;
        if (acc_t == Trend::Rising && exploit &&
            ent_t != Trend::Rising) {
            verdict = "converging: accuracy up, exploration and "
                      "entropy decaying";
        } else if (acc_t == Trend::Falling) {
            verdict = "regressing: accuracy falling — check the "
                      "reward window and CST churn";
        } else if (acc_t == Trend::Flat && eps_t == Trend::Flat) {
            verdict = "plateaued: policy stable, no further learning "
                      "signal";
        } else if (ent_t == Trend::Falling &&
                   acc_t != Trend::Rising) {
            verdict = "saturating: scores concentrating without "
                      "accuracy gains (possible overfit to stale "
                      "deltas)";
        } else {
            verdict = "mixed: trends disagree — inspect the curve";
        }
    }
    out << "  verdict: " << verdict << "\n";
}

void
renderCstHealth(const FlatDoc &doc, std::size_t snaps,
                std::ostream &out)
{
    const double probes = num(doc, "learn.cst.probes");
    const double hits = num(doc, "learn.cst.probe_hits");
    const double attempts = num(doc, "learn.cst.insert_attempts");
    const double inserts = num(doc, "learn.cst.inserts");
    const double duplicates = num(doc, "learn.cst.duplicates");
    const double conflicts = num(doc, "learn.cst.tag_conflicts");
    const double entry_evictions =
        num(doc, "learn.cst.entry_evictions");
    const double link_evictions = num(doc, "learn.cst.link_evictions");
    out << "cst health\n";
    out << "  probes            " << std::setw(12) << fmtCount(probes)
        << "   hit rate       " << ratio(hits, probes) << "\n";
    out << "  insert attempts   " << std::setw(12)
        << fmtCount(attempts) << "   duplicate rate "
        << ratio(duplicates, attempts) << "\n";
    out << "  links stored      " << std::setw(12) << fmtCount(inserts)
        << "   link churn     " << ratio(link_evictions, inserts)
        << "\n";
    out << "  hash collisions   " << std::setw(12)
        << fmtCount(conflicts) << "   conflict rate  "
        << ratio(conflicts, attempts) << "\n";
    out << "  entry evictions   " << std::setw(12)
        << fmtCount(entry_evictions);
    if (snaps > 0) {
        const std::string last_live =
            snapKey(snaps - 1, "cst_live_entries");
        const std::string last_total =
            snapKey(snaps - 1, "cst_entries");
        out << "   occupancy      "
            << ratio(num(doc, last_live), num(doc, last_total));
    }
    out << "\n";
}

void
renderTopContexts(const FlatDoc &doc, std::size_t snaps,
                  std::ostream &out,
                  const LearnReportOptions &options)
{
    if (snaps == 0)
        return;
    const std::size_t last = snaps - 1;
    out << "top contexts (final snapshot)\n";
    for (std::size_t c = 0; c < options.max_contexts; ++c) {
        std::ostringstream prefix;
        prefix << "snapshots." << last << ".top_contexts." << c << '.';
        const FlatValue *key = doc.find(prefix.str() + "key");
        if (key == nullptr)
            break;
        out << "  ctx " << std::setw(10)
            << fmtCount(key->is_number ? key->number : 0) << "  churn "
            << std::setw(3)
            << fmtCount(num(doc, prefix.str() + "churn")) << "  links";
        for (std::size_t l = 0;; ++l) {
            std::ostringstream link;
            link << prefix.str() << "links." << l << '.';
            const FlatValue *delta = doc.find(link.str() + "delta");
            if (delta == nullptr)
                break;
            out << ' '
                << fmtCount(delta->is_number ? delta->number : 0) << ':'
                << fmtCount(num(doc, link.str() + "score"));
        }
        out << "\n";
    }
}

void
renderCompare(const FlatDoc &a, const std::string &label_a,
              const FlatDoc &b, const std::string &label_b,
              std::ostream &out)
{
    out << "comparison\n";
    out << "  " << std::setw(22) << "" << std::setw(14) << "A"
        << std::setw(14) << "B" << std::setw(14) << "delta" << "\n";
    const auto row = [&](const char *label, const std::string &name,
                         int precision) {
        const double va = num(a, name);
        const double vb = num(b, name);
        out << "  " << std::setw(22) << label << std::setw(14)
            << fmt(va, precision) << std::setw(14)
            << fmt(vb, precision) << std::setw(14)
            << fmt(vb - va, precision) << "\n";
    };
    row("final epsilon", "learn.policy.epsilon", 4);
    row("final accuracy", "learn.policy.accuracy", 4);
    row("final entropy", "learn.policy.entropy", 4);
    row("cumulative reward", "learn.reward.cumulative", 0);
    row("explorations", "learn.policy.explorations", 0);
    row("cst links stored", "learn.cst.inserts", 0);
    row("cst hash collisions", "learn.cst.tag_conflicts", 0);
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
          std::ostream &out, const LearnReportOptions &options)
{
    const std::size_t snaps = snapshotCount(doc);
    renderHeader(doc, label, out);
    renderCurve(doc, snaps, out, options);
    renderConvergence(doc, snaps, out);
    renderCstHealth(doc, snaps, out);
    renderTopContexts(doc, snaps, out, options);
}

} // namespace

bool
isLearnDoc(const FlatDoc &doc, std::string *error)
{
    DocRules rules(doc);
    rules.check(text(doc, "schema", "") == "csp-learn-v2",
                "not a csp-learn-v2 document (missing or unexpected "
                "\"schema\")");
    rules.check(text(doc, "manifest.schema", "") ==
                    "csp-run-manifest-v1",
                "missing embedded csp-run-manifest-v1 manifest");
    rules.text("prefetcher");
    rules.number("learn.tick_insts");
    for (const char *key : kSummaryKeys)
        rules.number(std::string("learn.") + key);
    rules.check(rules.number("learn.cst.probe_hits") <=
                    rules.number("learn.cst.probes"),
                "learn.cst: probe_hits exceeds probes");
    rules.check(rules.number("learn.cst.inserts") +
                        rules.number("learn.cst.duplicates") <=
                    rules.number("learn.cst.insert_attempts"),
                "learn.cst: inserts + duplicates exceed "
                "insert_attempts");

    const std::size_t snaps = rules.length("snapshots");
    rules.check(snaps != 0, "snapshots array missing or empty");
    // Snapshots sit on the run's observation ticks: instructions
    // strictly increase; lookups (memory accesses) may repeat when a
    // tick follows a stretch with no access.
    double last_insts = 0.0;
    double last_lookup = 0.0;
    for (std::size_t n = 0; n < snaps && rules.ok(); ++n) {
        const std::string at = "snapshots." + std::to_string(n) + '.';
        for (const char *key : kSnapshotKeys)
            rules.number(at + key);
        const double insts = rules.number(at + "instructions");
        rules.check(insts > last_insts,
                    at + "instructions not strictly increasing");
        last_insts = insts;
        const double lookup = rules.number(at + "lookup");
        rules.check(lookup >= last_lookup, at + "lookup decreased");
        last_lookup = lookup;
        for (const char *key : {"epsilon", "accuracy", "entropy"}) {
            const double value = rules.number(at + key);
            rules.check(value >= 0.0 && value <= 1.0,
                        at + key + " outside [0, 1]");
        }
        rules.check(rules.number(at + "cst_live_entries") <=
                        rules.number(at + "cst_entries"),
                    at + "cst_live_entries exceeds cst_entries");
        const std::size_t contexts = rules.length(at + "top_contexts");
        for (std::size_t c = 0; c < contexts; ++c) {
            const std::string ctx =
                at + "top_contexts." + std::to_string(c) + '.';
            rules.number(ctx + "key");
            rules.number(ctx + "churn");
            const std::size_t links = rules.length(ctx + "links");
            for (std::size_t l = 0; l < links; ++l) {
                const std::string link =
                    ctx + "links." + std::to_string(l) + '.';
                rules.check(rules.number(link + "delta") != 0.0,
                            link + "delta is 0");
                const double score = rules.number(link + "score");
                rules.check(score >= -128.0 && score <= 127.0,
                            link + "score outside the Score8 range");
            }
        }
    }
    return rules.result(error);
}

bool
renderLearnReport(const FlatDoc &a, const std::string &label_a,
                  const FlatDoc *b, const std::string &label_b,
                  std::ostream &out, std::string *error,
                  const LearnReportOptions &options)
{
    if (!isLearnDoc(a, error))
        return false;
    if (b != nullptr && !isLearnDoc(*b, error))
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
