#include "core/stats_registry.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/logging.h"

namespace csp::stats {

namespace {

bool
validName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.')
        return false;
    char prev = '.';
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                        c == '_' || c == '-' || c == '.';
        if (!ok || (c == '.' && prev == '.'))
            return false;
        prev = c;
    }
    return true;
}

double
finiteOrZero(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

/** Render a value the way both JSON and CSV want it: integers exact,
 *  reals with enough digits to round-trip the metrics we track. */
void
writeNumber(std::ostream &out, double v)
{
    v = finiteOrZero(v);
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
        out << static_cast<long long>(v);
        return;
    }
    out << std::setprecision(12) << v;
}

DistSummary
summarise(const Histogram &hist)
{
    DistSummary s;
    s.count = hist.count();
    s.mean = hist.mean();
    const auto &buckets = hist.buckets();
    bool found = false;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        if (!found) {
            s.min = i == 0 ? 0.0
                           : static_cast<double>(hist.bucketEdge(i - 1)) +
                                 1.0;
            found = true;
        }
        s.max = static_cast<double>(hist.bucketEdge(i));
    }
    if (hist.overflow() > 0) {
        const std::size_t last = buckets.size() - 1;
        s.max = static_cast<double>(hist.bucketEdge(last)) + 1.0;
        if (!found)
            s.min = s.max;
    }
    s.buckets = buckets;
    return s;
}

DistSummary
summarise(const Log2Histogram &hist)
{
    DistSummary s;
    s.count = hist.count();
    s.mean = hist.mean();
    s.min = static_cast<double>(hist.minEdge());
    s.max = static_cast<double>(hist.maxEdge());
    s.has_percentiles = true;
    s.p50 = static_cast<double>(hist.percentile(0.50));
    s.p90 = static_cast<double>(hist.percentile(0.90));
    s.p99 = static_cast<double>(hist.percentile(0.99));
    s.buckets = hist.buckets();
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

void
Registry::add(Entry entry)
{
    if (!validName(entry.name))
        panic("invalid stat name: '%s'", entry.name.c_str());
    for (const Entry &existing : entries_) {
        if (existing.name == entry.name)
            panic("duplicate stat name: %s", entry.name.c_str());
        // A name must not be both a leaf and a group ("sim.ipc" vs
        // "sim.ipc.raw") or the hierarchical export is ambiguous.
        const std::string &a = existing.name;
        const std::string &b = entry.name;
        if (a.size() > b.size() ? (a.compare(0, b.size(), b) == 0 &&
                                   a[b.size()] == '.')
                                : (b.compare(0, a.size(), a) == 0 &&
                                   b.size() > a.size() &&
                                   b[a.size()] == '.')) {
            panic("stat name %s conflicts with group %s", b.c_str(),
                  a.c_str());
        }
    }
    entries_.push_back(std::move(entry));
}

void
Registry::counter(const std::string &name, const std::uint64_t *value,
                  const std::string &desc)
{
    CSP_ASSERT(value != nullptr);
    counter(name, [value] { return *value; }, desc);
}

void
Registry::counter(const std::string &name,
                  std::function<std::uint64_t()> fn,
                  const std::string &desc)
{
    Entry entry;
    entry.name = name;
    entry.desc = desc;
    entry.kind = Kind::Counter;
    entry.counter = std::move(fn);
    add(std::move(entry));
}

void
Registry::gauge(const std::string &name, std::function<double()> fn,
                const std::string &desc)
{
    Entry entry;
    entry.name = name;
    entry.desc = desc;
    entry.kind = Kind::Gauge;
    entry.gauge = std::move(fn);
    add(std::move(entry));
}

void
Registry::distribution(const std::string &name, const Histogram *hist,
                       const std::string &desc)
{
    CSP_ASSERT(hist != nullptr);
    distribution(name, [hist] { return summarise(*hist); }, desc);
}

void
Registry::distribution(const std::string &name,
                       const Log2Histogram *hist,
                       const std::string &desc)
{
    CSP_ASSERT(hist != nullptr);
    Entry entry;
    entry.name = name;
    entry.desc = desc;
    entry.kind = Kind::Distribution;
    entry.percentiles = true;
    entry.dist = [hist] { return summarise(*hist); };
    add(std::move(entry));
}

void
Registry::distribution(const std::string &name,
                       std::function<DistSummary()> fn,
                       const std::string &desc)
{
    Entry entry;
    entry.name = name;
    entry.desc = desc;
    entry.kind = Kind::Distribution;
    entry.dist = std::move(fn);
    add(std::move(entry));
}

void
Registry::formula(const std::string &name, const std::string &numerator,
                  const std::string &denominator, double scale,
                  const std::string &desc)
{
    Entry entry;
    entry.name = name;
    entry.desc = desc;
    entry.kind = Kind::Formula;
    entry.num = numerator;
    entry.den = denominator;
    entry.scale = scale;
    add(std::move(entry));
}

const Registry::Entry *
Registry::find(const std::string &name) const
{
    for (const Entry &entry : entries_) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

double
Registry::entryValue(const Entry &entry) const
{
    switch (entry.kind) {
      case Kind::Counter:
        return static_cast<double>(entry.counter());
      case Kind::Gauge:
        return finiteOrZero(entry.gauge());
      case Kind::Distribution:
        panic("stat %s is a distribution, not a scalar",
              entry.name.c_str());
      case Kind::Formula: {
        const Entry *num = find(entry.num);
        const Entry *den = find(entry.den);
        if (num == nullptr || den == nullptr) {
            panic("formula %s references unknown stat %s",
                  entry.name.c_str(),
                  (num == nullptr ? entry.num : entry.den).c_str());
        }
        if (num->kind == Kind::Formula || den->kind == Kind::Formula ||
            num->kind == Kind::Distribution ||
            den->kind == Kind::Distribution) {
            panic("formula %s operands must be counters or gauges",
                  entry.name.c_str());
        }
        const double d = entryValue(*den);
        return d == 0.0
                   ? 0.0
                   : finiteOrZero(entry.scale * entryValue(*num) / d);
      }
    }
    panic("unreachable stat kind");
}

double
Registry::value(const std::string &name) const
{
    const Entry *entry = find(name);
    if (entry == nullptr)
        panic("unknown stat: %s", name.c_str());
    return entryValue(*entry);
}

bool
Registry::matchesFilter(const std::string &name,
                        const std::string &filter)
{
    if (filter.empty())
        return true;
    if (name.size() < filter.size() ||
        name.compare(0, filter.size(), filter) != 0)
        return false;
    return name.size() == filter.size() || name[filter.size()] == '.';
}

Report
Registry::report(const std::string &filter) const
{
    Report report;
    for (const Entry &entry : entries_) {
        if (!matchesFilter(entry.name, filter))
            continue;
        ReportEntry out;
        out.name = entry.name;
        out.desc = entry.desc;
        out.kind = entry.kind;
        if (entry.kind == Kind::Distribution) {
            out.dist = entry.dist();
            out.value = out.dist.mean;
        } else {
            out.value = entryValue(entry);
        }
        report.entries.push_back(std::move(out));
    }
    return report;
}

std::string
Registry::toJson(const std::string &filter) const
{
    return report(filter).toJson();
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

const ReportEntry *
Report::find(const std::string &name) const
{
    for (const ReportEntry &entry : entries) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

double
Report::value(const std::string &name) const
{
    const ReportEntry *entry = find(name);
    if (entry == nullptr)
        panic("unknown stat: %s", name.c_str());
    return entry->value;
}

namespace {

/** Segment of @p name starting at @p from, up to the next dot. */
std::string
segmentAt(const std::string &name, std::size_t from)
{
    const std::size_t dot = name.find('.', from);
    return name.substr(from,
                       dot == std::string::npos ? dot : dot - from);
}

void
writeGroup(std::ostream &out,
           const std::vector<const ReportEntry *> &sorted,
           std::size_t lo, std::size_t hi, std::size_t depth)
{
    out << '{';
    bool first = true;
    std::size_t i = lo;
    while (i < hi) {
        const std::string seg = segmentAt(sorted[i]->name, depth);
        std::size_t j = i + 1;
        while (j < hi && segmentAt(sorted[j]->name, depth) == seg)
            ++j;
        if (!first)
            out << ',';
        first = false;
        out << '"' << seg << "\":";
        const std::size_t next = depth + seg.size() + 1;
        if (j == i + 1 && sorted[i]->name.size() < next) {
            // Leaf: the full name ends at this segment.
            const ReportEntry &entry = *sorted[i];
            if (entry.kind == Kind::Distribution) {
                out << "{\"count\":" << entry.dist.count << ",\"mean\":";
                writeNumber(out, entry.dist.mean);
                out << ",\"min\":";
                writeNumber(out, entry.dist.min);
                out << ",\"max\":";
                writeNumber(out, entry.dist.max);
                if (entry.dist.has_percentiles) {
                    out << ",\"p50\":";
                    writeNumber(out, entry.dist.p50);
                    out << ",\"p90\":";
                    writeNumber(out, entry.dist.p90);
                    out << ",\"p99\":";
                    writeNumber(out, entry.dist.p99);
                    out << ",\"buckets\":[";
                    for (std::size_t b = 0;
                         b < entry.dist.buckets.size(); ++b) {
                        out << (b == 0 ? "" : ",")
                            << entry.dist.buckets[b];
                    }
                    out << ']';
                }
                out << '}';
            } else {
                writeNumber(out, entry.value);
            }
        } else {
            writeGroup(out, sorted, i, j, next);
        }
        i = j;
    }
    out << '}';
}

} // namespace

std::string
Report::toJson() const
{
    std::vector<const ReportEntry *> sorted;
    sorted.reserve(entries.size());
    for (const ReportEntry &entry : entries)
        sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const ReportEntry *a, const ReportEntry *b) {
                  return a->name < b->name;
              });
    std::ostringstream out;
    writeGroup(out, sorted, 0, sorted.size(), 0);
    return out.str();
}

// ---------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------

int
TimeSeries::columnIndex(const std::string &column) const
{
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (columns[i] == column)
            return static_cast<int>(i);
    }
    return -1;
}

void
TimeSeries::writeCsv(std::ostream &out) const
{
    out << "instructions";
    for (const std::string &column : columns)
        out << ',' << column;
    out << '\n';
    for (const Row &row : rows) {
        out << row.instructions;
        for (double v : row.values) {
            out << ',';
            writeNumber(out, v);
        }
        out << '\n';
    }
}

// ---------------------------------------------------------------------
// IntervalSampler
// ---------------------------------------------------------------------

IntervalSampler::IntervalSampler(const Registry &registry,
                                 const std::string &filter)
    : registry_(registry)
{
    for (std::size_t i = 0; i < registry.entries_.size(); ++i) {
        const Registry::Entry &entry = registry.entries_[i];
        if (!Registry::matchesFilter(entry.name, filter))
            continue;
        sampled_.push_back(i);
        if (entry.kind == Kind::Distribution) {
            series_.columns.push_back(entry.name + ".count");
            series_.columns.push_back(entry.name + ".mean");
            if (entry.percentiles) {
                series_.columns.push_back(entry.name + ".p50");
                series_.columns.push_back(entry.name + ".p90");
                series_.columns.push_back(entry.name + ".p99");
            }
        } else {
            series_.columns.push_back(entry.name);
        }
    }
    last_cumulative_.assign(sampled_.size(), 0.0);
    last_num_.assign(sampled_.size(), 0.0);
    last_den_.assign(sampled_.size(), 0.0);
}

void
IntervalSampler::sample(std::uint64_t instructions)
{
    TimeSeries::Row row;
    row.instructions = instructions;
    row.values.reserve(series_.columns.size());
    for (std::size_t k = 0; k < sampled_.size(); ++k) {
        const Registry::Entry &entry = registry_.entries_[sampled_[k]];
        switch (entry.kind) {
          case Kind::Counter: {
            const double cur = static_cast<double>(entry.counter());
            row.values.push_back(cur - last_cumulative_[k]);
            last_cumulative_[k] = cur;
            break;
          }
          case Kind::Gauge:
            row.values.push_back(finiteOrZero(entry.gauge()));
            break;
          case Kind::Distribution: {
            const DistSummary s = entry.dist();
            const double count = static_cast<double>(s.count);
            row.values.push_back(count - last_cumulative_[k]);
            row.values.push_back(s.mean);
            if (entry.percentiles) {
                // Cumulative snapshots, not interval deltas: the
                // percentile of an interval's samples alone is not
                // recoverable from bucket counts without a second
                // baseline copy; the running percentile is what the
                // saturation dashboards want anyway.
                row.values.push_back(s.p50);
                row.values.push_back(s.p90);
                row.values.push_back(s.p99);
            }
            last_cumulative_[k] = count;
            break;
          }
          case Kind::Formula: {
            const Registry::Entry *num = registry_.find(entry.num);
            const Registry::Entry *den = registry_.find(entry.den);
            CSP_ASSERT(num != nullptr && den != nullptr);
            // Counter operands contribute their interval delta so the
            // formula describes this interval, not the whole run.
            double a = num->kind == Kind::Counter
                           ? static_cast<double>(num->counter())
                           : finiteOrZero(num->gauge());
            double b = den->kind == Kind::Counter
                           ? static_cast<double>(den->counter())
                           : finiteOrZero(den->gauge());
            const double da =
                num->kind == Kind::Counter ? a - last_num_[k] : a;
            const double db =
                den->kind == Kind::Counter ? b - last_den_[k] : b;
            last_num_[k] = a;
            last_den_[k] = b;
            row.values.push_back(
                db == 0.0 ? 0.0
                          : finiteOrZero(entry.scale * da / db));
            break;
          }
        }
    }
    series_.rows.push_back(std::move(row));
}

} // namespace csp::stats
