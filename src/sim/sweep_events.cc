#include "sim/sweep_events.h"

#include <utility>

#include "core/logging.h"
#include "core/run_manifest.h"
#include "core/stats_registry.h"

namespace csp::sim {

SweepEventJournal::~SweepEventJournal() { close(); }

bool
SweepEventJournal::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ != nullptr) {
        warn("event journal: already open, ignoring open(%s)",
             path.c_str());
        return false;
    }
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        warn("event journal: cannot write %s", path.c_str());
        return false;
    }
    // Unbuffered so each emit()'s single fwrite reaches the file whole
    // — a reader following the journal (csptop --follow) never sees a
    // torn line, and a crashed sweep leaves a valid prefix.
    std::setvbuf(file, nullptr, _IONBF, 0);
    file_ = file;
    seq_ = 0;
    start_ = std::chrono::steady_clock::now();
    unix_start_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    return true;
}

void
SweepEventJournal::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

SweepEventJournal::Field
SweepEventJournal::u64(const char *key, std::uint64_t value)
{
    Field f;
    f.key = key;
    f.kind = Field::Kind::U64;
    f.u = value;
    return f;
}

SweepEventJournal::Field
SweepEventJournal::str(const char *key, std::string value)
{
    Field f;
    f.key = key;
    f.kind = Field::Kind::Str;
    f.s = std::move(value);
    return f;
}

SweepEventJournal::Field
SweepEventJournal::raw(const char *key, std::string json)
{
    Field f;
    f.key = key;
    f.kind = Field::Kind::Raw;
    f.s = std::move(json);
    return f;
}

std::uint64_t
SweepEventJournal::elapsedNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
}

void
SweepEventJournal::emit(const char *event,
                        std::initializer_list<Field> fields)
{
    // The line is fully formatted before any I/O; t_ns and seq are
    // assigned under the mutex so both are nondecreasing in the file.
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr)
        return;
    std::string line;
    line.reserve(256);
    line += "{\"event\":\"";
    line += event;
    line += "\",\"t_ns\":";
    line += std::to_string(elapsedNs());
    line += ",\"seq\":";
    line += std::to_string(seq_++);
    for (const Field &field : fields) {
        line += ",\"";
        line += field.key;
        line += "\":";
        switch (field.kind) {
        case Field::Kind::U64:
            line += std::to_string(field.u);
            break;
        case Field::Kind::Str:
            line += '"';
            line += jsonEscape(field.s);
            line += '"';
            break;
        case Field::Kind::Raw:
            line += field.s;
            break;
        }
    }
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), file_);
}

std::string
SweepTelemetry::statsJson() const
{
    stats::Registry registry;
    registry.counter("sweep.cells_owned", &cells_owned,
                     "distinct cells the sweep scheduled");
    registry.counter("sweep.cells_cached", &cells_cached,
                     "cells satisfied from the result cache");
    registry.counter("sweep.cells_simulated", &cells_simulated,
                     "cells actually simulated");
    registry.counter("sweep.trace_cache_hits", &trace_cache_hits,
                     "workload trace summaries read from the memo");
    registry.counter("sweep.traces_generated", &traces_generated,
                     "workload traces generated");
    registry.distribution("sweep.cell_duration_ns", &cell_duration_ns,
                          "wall-clock per cell (cached or simulated)");
    registry.counter("cache.read_ns", &cache_read_ns,
                     "cached-entry file read time");
    registry.counter("cache.parse_ns", &cache_parse_ns,
                     "cached-entry JSON parse + verify time");
    registry.counter("cache.entry_bytes", &cache_entry_bytes,
                     "cached-entry bytes read");
    registry.counter("cache.verify_failures", &cache_verify_failures,
                     "entries rejected by self-verification");
    registry.distribution("cache.load_ns", &cache_load_ns,
                          "per-entry read+parse time");
    registry.distribution("cache.entry_bytes_dist",
                          &cache_entry_bytes_dist,
                          "per-entry size in bytes");
    return registry.toJson();
}

} // namespace csp::sim
