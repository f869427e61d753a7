#include "sim/sweep_io.h"

#include <ostream>

#include "sim/result_cache.h"

namespace csp::sim {

void
writeSweepCsv(std::ostream &out, const SweepResult &result)
{
    out << "workload,prefetcher";
    for (const auto &[name, value] : runStatsFields(RunStats{})) {
        static_cast<void>(value);
        out << ',' << name;
    }
    out << '\n';
    for (const CellResult &cell : result.cells) {
        out << cell.workload << ',' << cell.prefetcher;
        for (const auto &[name, value] : runStatsFields(cell.stats)) {
            static_cast<void>(name);
            out << ',' << value;
        }
        out << '\n';
    }
}

void
writeSweepJson(std::ostream &out, const SweepResult &result)
{
    out << "{\"schema\":\"csp-sweep-v2\"\n"
        << ",\"manifest\":" << result.manifest.toJson() << '\n'
        << ",\"cache\":{\"cells_total\":" << result.cells.size()
        << ",\"cells_cached\":" << result.cells_cached
        << ",\"cells_simulated\":" << result.cells_simulated
        << ",\"trace_cache_hits\":" << result.trace_cache_hits
        << ",\"read_ns\":" << result.cache_read_ns
        << ",\"parse_ns\":" << result.cache_parse_ns
        << ",\"entry_bytes\":" << result.cache_entry_bytes
        << ",\"verify_failures\":" << result.cache_verify_failures
        << '}' << '\n'
        << ",\"cells\":[";
    bool first = true;
    for (const CellResult &cell : result.cells) {
        out << (first ? "" : ",") << "\n{\"workload\":\""
            << cell.workload << "\",\"prefetcher\":\""
            << cell.prefetcher << "\",\"stats\":";
        writeRunStatsJson(out, cell.stats);
        out << '}';
        first = false;
    }
    out << "\n]}\n";
}

} // namespace csp::sim
