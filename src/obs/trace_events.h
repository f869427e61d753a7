/**
 * @file
 * Chrome-trace-event (Perfetto-loadable) JSON exporter. Emits the
 * "traceEvents" array format understood by ui.perfetto.dev and
 * chrome://tracing: prefetch lifecycles as async spans (ph "b"/"e"
 * paired by category + id), demand misses and RL reward applications
 * as instant events (ph "i"), and MSHR occupancy / bandit state as
 * counter tracks (ph "C").
 *
 * Timestamps are simulated cycles written directly into the "ts"
 * field; the viewer labels them as microseconds, so read 1 "us" in the
 * UI as 1 core cycle. Events stream to the output as they happen —
 * nothing is buffered beyond the ostream — so a writer costs O(1)
 * memory no matter how long the run is. close() terminates the JSON;
 * the destructor calls it if the caller forgot.
 *
 * Writers are single-threaded by design: cspsim's parallel
 * per-prefetcher runs each get their own writer and file.
 */

#ifndef CSP_OBS_TRACE_EVENTS_H
#define CSP_OBS_TRACE_EVENTS_H

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <utility>

#include "core/types.h"

namespace csp::obs {

/** See file comment. */
class TraceEventWriter
{
  public:
    /** Starts the JSON document on @p out immediately (metadata events
     *  naming the pid/tid tracks included). */
    explicit TraceEventWriter(std::ostream &out);
    ~TraceEventWriter();

    TraceEventWriter(const TraceEventWriter &) = delete;
    TraceEventWriter &operator=(const TraceEventWriter &) = delete;

    /** Track ids: Perfetto groups async spans per (pid, cat, id) and
     *  instants per tid, so each event family gets its own lane. */
    static constexpr int kPid = 1;
    static constexpr int kTidPrefetch = 1;
    static constexpr int kTidDemand = 2;
    static constexpr int kTidRl = 3;

    /** Open an async span. @p args_json is a JSON object literal
     *  ("{...}") or empty for no args. */
    void asyncBegin(const char *cat, const char *name, std::uint64_t id,
                    Cycle ts, const std::string &args_json = "");

    /** Close the async span opened with the same (cat, id). */
    void asyncEnd(const char *cat, const char *name, std::uint64_t id,
                  Cycle ts, const std::string &args_json = "");

    /** Thread-scoped instant event on @p tid. */
    void instant(const char *cat, const char *name, int tid, Cycle ts,
                 const std::string &args_json = "");

    /** One sample on the counter track @p name (each pair becomes a
     *  series in the same track). */
    void counter(const char *name, Cycle ts,
                 std::initializer_list<std::pair<const char *, double>>
                     values);

    /** Terminate the JSON document. Idempotent. */
    void close();

    /** Events emitted so far (metadata included). */
    std::uint64_t eventCount() const { return events_; }

  private:
    void begin(const char *name, const char *cat, char ph, int tid,
               Cycle ts);
    void metadata(const char *name, int tid, const std::string &value);

    std::ostream &out_;
    std::uint64_t events_ = 0;
    bool open_ = true;
};

/** Hex-formatted address ("0x1234") for JSON args and autopsy rows. */
std::string hexAddr(Addr addr);

} // namespace csp::obs

#endif // CSP_OBS_TRACE_EVENTS_H
