#include "obs/lifecycle.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/trace_events.h"

namespace csp::obs {

const char *
prefetchClassName(PrefetchClass cls)
{
    switch (cls) {
      case PrefetchClass::Timely: return "timely";
      case PrefetchClass::Late: return "late";
      case PrefetchClass::Early: return "early";
      case PrefetchClass::Redundant: return "redundant";
      case PrefetchClass::Useless: return "useless";
      case PrefetchClass::Dropped: return "dropped";
      case PrefetchClass::Count: break;
    }
    return "?";
}

PrefetchTracker::PrefetchTracker(TraceEventWriter *events,
                                 std::uint64_t sample_every)
    : events_(events),
      sample_every_(sample_every == 0 ? 1 : sample_every)
{}

void
PrefetchTracker::classifyAtIssue(Addr line, Addr pc, PrefetchClass cls,
                                 Cycle now)
{
    ++attempts_;
    ++classes_[static_cast<std::size_t>(cls)];
    IssuerRow &row = by_issuer_pc_[pc];
    ++row.attempts;
    ++row.classes[static_cast<std::size_t>(cls)];
    if (events_ != nullptr && sampled(attempts_)) {
        std::ostringstream args;
        args << "{\"line\":\"" << hexAddr(line) << "\",\"pc\":\""
             << hexAddr(pc) << "\"}";
        events_->instant("prefetch",
                         cls == PrefetchClass::Dropped
                             ? "prefetch-dropped"
                             : "prefetch-redundant",
                         TraceEventWriter::kTidPrefetch, now,
                         args.str());
    }
}

void
PrefetchTracker::onIssued(Addr line, Addr pc, Cycle issue, Cycle fill,
                          bool to_l1, bool to_memory)
{
    if (active_.find(line) != nullptr) {
        // An older prefetch for this line is still in flight; the new
        // request adds nothing — its lifecycle terminates at issue.
        classifyAtIssue(line, pc, PrefetchClass::Redundant, issue);
        return;
    }
    ++attempts_;
    ++issued_;
    IssuerRow &row = by_issuer_pc_[pc];
    ++row.attempts;
    ++row.issued;
    Lifecycle record;
    record.id = next_id_++;
    record.pc = pc;
    record.issue = issue;
    record.fill = fill;
    record.to_l1 = to_l1;
    record.to_memory = to_memory;
    active_.tryEmplace(line, record);
    if (events_ != nullptr && sampled(record.id)) {
        std::ostringstream args;
        args << "{\"line\":\"" << hexAddr(line) << "\",\"pc\":\""
             << hexAddr(pc) << "\",\"fill\":" << fill
             << ",\"to_l1\":" << (to_l1 ? "true" : "false")
             << ",\"dram\":" << (to_memory ? "true" : "false") << '}';
        events_->asyncBegin("prefetch", "prefetch", record.id, issue,
                            args.str());
    }
}

void
PrefetchTracker::onRedundant(Addr line, Addr pc, Cycle now)
{
    classifyAtIssue(line, pc, PrefetchClass::Redundant, now);
}

void
PrefetchTracker::onDropped(Addr line, Addr pc, Cycle now)
{
    classifyAtIssue(line, pc, PrefetchClass::Dropped, now);
}

void
PrefetchTracker::closeLifecycle(const Lifecycle &record,
                                PrefetchClass cls, Cycle now)
{
    ++classes_[static_cast<std::size_t>(cls)];
    ++by_issuer_pc_[record.pc]
          .classes[static_cast<std::size_t>(cls)];
    if (events_ != nullptr && sampled(record.id)) {
        std::ostringstream args;
        args << "{\"class\":\"" << prefetchClassName(cls) << "\"}";
        // Async spans need a non-zero duration to render; a terminal
        // event in the issue cycle still gets a 1-cycle sliver.
        events_->asyncEnd("prefetch", "prefetch", record.id,
                          std::max(now, record.issue + 1), args.str());
    }
}

void
PrefetchTracker::onDemandUse(Addr line, Addr demand_pc, Cycle now,
                             bool ready)
{
    const Lifecycle *record = active_.find(line);
    if (record == nullptr)
        return;
    const PrefetchClass cls =
        ready ? PrefetchClass::Timely : PrefetchClass::Late;
    closeLifecycle(*record, cls, now);
    active_.erase(line);
    DemandRow &row = by_demand_pc_[demand_pc];
    if (ready)
        ++row.covered_timely;
    else
        ++row.covered_late;
}

void
PrefetchTracker::onEvictedUnused(Addr line, Cycle now)
{
    const Lifecycle *record = active_.find(line);
    if (record == nullptr)
        return;
    closeLifecycle(*record, PrefetchClass::Early, now);
    active_.erase(line);
}

void
PrefetchTracker::onDemandMiss(Addr line, Addr pc, Cycle now,
                              bool to_memory)
{
    ++demand_misses_;
    ++by_demand_pc_[pc].misses;
    if (events_ != nullptr && sampled(demand_misses_)) {
        std::ostringstream args;
        args << "{\"line\":\"" << hexAddr(line) << "\",\"pc\":\""
             << hexAddr(pc)
             << "\",\"dram\":" << (to_memory ? "true" : "false")
             << '}';
        events_->instant("demand", "demand-miss",
                         TraceEventWriter::kTidDemand, now,
                         args.str());
    }
}

void
PrefetchTracker::onTick(const Tick &tick)
{
    if (events_ == nullptr)
        return;
    events_->counter("mshr", tick.cycle,
                     {{"l1", static_cast<double>(tick.queue.l1_mshr_busy)},
                      {"l2", static_cast<double>(tick.queue.l2_mshr_busy)},
                      {"inflight_pf",
                       static_cast<double>(active_.size())}});
}

void
PrefetchTracker::finish(Cycle now)
{
    // Close the survivors in issue order so the emitted span ends (and
    // the autopsy they feed) are deterministic despite the hash map.
    std::vector<Lifecycle> rest;
    rest.reserve(active_.size());
    active_.forEach(
        [&rest](Addr, const Lifecycle &record) { rest.push_back(record); });
    std::sort(rest.begin(), rest.end(),
              [](const Lifecycle &a, const Lifecycle &b) {
                  return a.id < b.id;
              });
    for (const Lifecycle &record : rest)
        closeLifecycle(record, PrefetchClass::Useless, now);
    active_.clear();
}

std::uint64_t
PrefetchTracker::covered() const
{
    return classCount(PrefetchClass::Timely) +
           classCount(PrefetchClass::Late);
}

double
PrefetchTracker::accuracy() const
{
    return issued_ == 0 ? 0.0
                        : static_cast<double>(covered()) /
                              static_cast<double>(issued_);
}

double
PrefetchTracker::timeliness() const
{
    const std::uint64_t useful = covered();
    return useful == 0
               ? 0.0
               : static_cast<double>(
                     classCount(PrefetchClass::Timely)) /
                     static_cast<double>(useful);
}

double
PrefetchTracker::coverage() const
{
    const std::uint64_t addressable =
        classCount(PrefetchClass::Timely) + demand_misses_;
    return addressable == 0 ? 0.0
                            : static_cast<double>(covered()) /
                                  static_cast<double>(addressable);
}

namespace {

/** Sorted keys of a hash map (deterministic row order). */
template <typename Map>
std::vector<Addr>
sortedKeys(const Map &map)
{
    std::vector<Addr> keys;
    keys.reserve(map.size());
    map.forEach([&keys](Addr key, const auto &) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    return keys;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) /
                          static_cast<double>(den);
}

} // namespace

void
PrefetchTracker::writeAutopsyCsv(std::ostream &out,
                                 const std::string &label) const
{
    out << "label,kind,pc,attempts,issued,timely,late,early,redundant,"
           "useless,dropped,demand_misses,covered,accuracy,timeliness,"
           "coverage\n";
    const auto cls = [](const auto &classes, PrefetchClass c) {
        return classes[static_cast<std::size_t>(c)];
    };
    out << label << ",total,-," << attempts_ << ',' << issued_ << ','
        << cls(classes_, PrefetchClass::Timely) << ','
        << cls(classes_, PrefetchClass::Late) << ','
        << cls(classes_, PrefetchClass::Early) << ','
        << cls(classes_, PrefetchClass::Redundant) << ','
        << cls(classes_, PrefetchClass::Useless) << ','
        << cls(classes_, PrefetchClass::Dropped) << ','
        << demand_misses_ << ',' << covered() << ',' << accuracy()
        << ',' << timeliness() << ',' << coverage() << '\n';
    for (const Addr pc : sortedKeys(by_issuer_pc_)) {
        const IssuerRow &row = *by_issuer_pc_.find(pc);
        const std::uint64_t useful =
            cls(row.classes, PrefetchClass::Timely) +
            cls(row.classes, PrefetchClass::Late);
        out << label << ",issuer_pc," << hexAddr(pc) << ','
            << row.attempts << ',' << row.issued << ','
            << cls(row.classes, PrefetchClass::Timely) << ','
            << cls(row.classes, PrefetchClass::Late) << ','
            << cls(row.classes, PrefetchClass::Early) << ','
            << cls(row.classes, PrefetchClass::Redundant) << ','
            << cls(row.classes, PrefetchClass::Useless) << ','
            << cls(row.classes, PrefetchClass::Dropped) << ",0,"
            << useful << ',' << ratio(useful, row.issued) << ','
            << ratio(cls(row.classes, PrefetchClass::Timely), useful)
            << ",0\n";
    }
    for (const Addr pc : sortedKeys(by_demand_pc_)) {
        const DemandRow &row = *by_demand_pc_.find(pc);
        const std::uint64_t useful =
            row.covered_timely + row.covered_late;
        out << label << ",demand_pc," << hexAddr(pc)
            << ",0,0," << row.covered_timely << ',' << row.covered_late
            << ",0,0,0,0," << row.misses << ',' << useful << ",0,0,"
            << ratio(useful, row.covered_timely + row.misses) << '\n';
    }
}

void
PrefetchTracker::writeAutopsyJson(std::ostream &out,
                                  const std::string &label) const
{
    const auto classesJson = [](const auto &classes) {
        std::ostringstream json;
        json << '{';
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(PrefetchClass::Count); ++c) {
            json << (c == 0 ? "" : ",") << '"'
                 << prefetchClassName(static_cast<PrefetchClass>(c))
                 << "\":" << classes[c];
        }
        json << '}';
        return json.str();
    };
    out << "{\"prefetcher\":\"" << label << "\",\"total\":{"
        << "\"attempts\":" << attempts_ << ",\"issued\":" << issued_
        << ",\"classes\":" << classesJson(classes_)
        << ",\"demand_misses\":" << demand_misses_
        << ",\"covered\":" << covered()
        << ",\"accuracy\":" << accuracy()
        << ",\"timeliness\":" << timeliness()
        << ",\"coverage\":" << coverage() << "},\"by_issuer_pc\":[";
    bool first = true;
    for (const Addr pc : sortedKeys(by_issuer_pc_)) {
        const IssuerRow &row = *by_issuer_pc_.find(pc);
        const std::uint64_t useful =
            row.classes[static_cast<std::size_t>(
                PrefetchClass::Timely)] +
            row.classes[static_cast<std::size_t>(PrefetchClass::Late)];
        out << (first ? "" : ",") << "{\"pc\":\"" << hexAddr(pc)
            << "\",\"attempts\":" << row.attempts
            << ",\"issued\":" << row.issued
            << ",\"classes\":" << classesJson(row.classes)
            << ",\"accuracy\":" << ratio(useful, row.issued)
            << ",\"timeliness\":"
            << ratio(row.classes[static_cast<std::size_t>(
                         PrefetchClass::Timely)],
                     useful)
            << '}';
        first = false;
    }
    out << "],\"by_demand_pc\":[";
    first = true;
    for (const Addr pc : sortedKeys(by_demand_pc_)) {
        const DemandRow &row = *by_demand_pc_.find(pc);
        const std::uint64_t useful =
            row.covered_timely + row.covered_late;
        out << (first ? "" : ",") << "{\"pc\":\"" << hexAddr(pc)
            << "\",\"misses\":" << row.misses
            << ",\"covered_timely\":" << row.covered_timely
            << ",\"covered_late\":" << row.covered_late
            << ",\"coverage\":"
            << ratio(useful, row.covered_timely + row.misses) << '}';
        first = false;
    }
    out << "]}\n";
}

} // namespace csp::obs
