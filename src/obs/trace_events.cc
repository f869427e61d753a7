#include "obs/trace_events.h"

#include <ostream>
#include <sstream>

namespace csp::obs {

std::string
hexAddr(Addr addr)
{
    std::ostringstream out;
    out << "0x" << std::hex << addr;
    return out.str();
}

TraceEventWriter::TraceEventWriter(std::ostream &out) : out_(out)
{
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    metadata("process_name", 0, "cspsim");
    metadata("thread_name", kTidPrefetch, "prefetch lifecycles");
    metadata("thread_name", kTidDemand, "demand misses");
    metadata("thread_name", kTidRl, "rl events");
}

TraceEventWriter::~TraceEventWriter() { close(); }

void
TraceEventWriter::metadata(const char *name, int tid,
                           const std::string &value)
{
    out_ << (events_ == 0 ? "" : ",\n") << "{\"name\":\"" << name
         << "\",\"ph\":\"M\",\"pid\":" << kPid << ",\"tid\":" << tid
         << ",\"args\":{\"name\":\"" << value << "\"}}";
    ++events_;
}

void
TraceEventWriter::begin(const char *name, const char *cat, char ph,
                        int tid, Cycle ts)
{
    out_ << (events_ == 0 ? "" : ",\n") << "{\"name\":\"" << name
         << "\",\"cat\":\"" << cat << "\",\"ph\":\"" << ph
         << "\",\"ts\":" << ts << ",\"pid\":" << kPid
         << ",\"tid\":" << tid;
    ++events_;
}

void
TraceEventWriter::asyncBegin(const char *cat, const char *name,
                             std::uint64_t id, Cycle ts,
                             const std::string &args_json)
{
    begin(name, cat, 'b', kTidPrefetch, ts);
    out_ << ",\"id\":" << id;
    if (!args_json.empty())
        out_ << ",\"args\":" << args_json;
    out_ << '}';
}

void
TraceEventWriter::asyncEnd(const char *cat, const char *name,
                           std::uint64_t id, Cycle ts,
                           const std::string &args_json)
{
    begin(name, cat, 'e', kTidPrefetch, ts);
    out_ << ",\"id\":" << id;
    if (!args_json.empty())
        out_ << ",\"args\":" << args_json;
    out_ << '}';
}

void
TraceEventWriter::instant(const char *cat, const char *name, int tid,
                          Cycle ts, const std::string &args_json)
{
    begin(name, cat, 'i', tid, ts);
    out_ << ",\"s\":\"t\"";
    if (!args_json.empty())
        out_ << ",\"args\":" << args_json;
    out_ << '}';
}

void
TraceEventWriter::counter(
    const char *name, Cycle ts,
    std::initializer_list<std::pair<const char *, double>> values)
{
    begin(name, "counter", 'C', 0, ts);
    out_ << ",\"args\":{";
    bool first = true;
    for (const auto &[key, value] : values) {
        out_ << (first ? "" : ",") << '"' << key << "\":" << value;
        first = false;
    }
    out_ << "}}";
}

void
TraceEventWriter::close()
{
    if (!open_)
        return;
    open_ = false;
    out_ << "\n]}\n";
    out_.flush();
}

} // namespace csp::obs
