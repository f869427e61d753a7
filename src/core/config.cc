#include "core/config.h"

#include <sstream>

namespace csp {

std::uint64_t
ContextPrefetcherConfig::storageBytes() const
{
    // CST: per link a 1-byte delta + 1-byte score, 4 links per entry
    // (Cst::kLinks); per entry a tag byte and a reducer reference count
    // (paper: 2K x 4 links = 18kB incl. tags/metadata).
    const std::uint64_t cst =
        static_cast<std::uint64_t>(cst_entries) * (4 * 2 + 1);
    // Reducer: 6 bits per entry (attribute bitmap sharing the 2-bit
    // tag, bit-packed), matching the paper's 16K entries = 12kB.
    const std::uint64_t reducer =
        static_cast<std::uint64_t>(reducer_entries) * 6 / 8;
    // History queue: one reduced context hash per entry (19 bits -> round
    // to 3 bytes, paper: 120B for 50 entries).
    const std::uint64_t history = static_cast<std::uint64_t>(
        history_entries * ((reduced_hash_bits + 7) / 8));
    // Prefetch queue: address/context pairs (~10 bytes), paper: 1.3kB.
    const std::uint64_t pq =
        static_cast<std::uint64_t>(prefetch_queue_entries) * 10;
    return cst + reducer + history + pq;
}

std::string
SystemConfig::describe() const
{
    std::ostringstream out;
    out << "Simulation mode   | trace-driven, approximate OoO timing\n"
        << "Core type         | OoO, " << core.fetch_width
        << "-wide fetch\n"
        << "Queue sizes       | " << core.rob_entries << " ROB, "
        << core.iq_entries << " IQ, " << core.prf_entries << " PRF, "
        << core.lq_entries << " LQ/SQ\n"
        << "MSHRs             | L1: " << memory.l1d.mshrs
        << ", L2: " << memory.l2.mshrs << "\n"
        << "L1 cache          | " << memory.l1d.size_bytes / 1024
        << "kB Data, " << memory.l1d.ways << " ways, "
        << memory.l1d.access_latency << " cycles access, private\n"
        << "L2 cache          | " << memory.l2.size_bytes / (1024 * 1024)
        << "MB, " << memory.l2.ways << " ways, "
        << memory.l2.access_latency << " cycles access, shared\n"
        << "Main memory       | " << dramLatencyLabel() << "\n"
        << "--- Context prefetcher ---\n"
        << "CST               | " << context.cst_entries
        << " entries x 4 links, direct-mapped\n"
        << "Reducer           | " << context.reducer_entries
        << " entries, direct-mapped\n"
        << "History queue     | " << context.history_entries
        << " entries x " << context.reduced_hash_bits << " bit context\n"
        << "Prefetch queue    | " << context.prefetch_queue_entries
        << " entries of address/context pairs\n"
        << "Overall size      | ~" << context.storageBytes() / 1024
        << "kB\n"
        << "--- Competing prefetchers ---\n"
        << "GHB (all)         | GHB size: " << ghb.ghb_entries
        << ", History length: " << ghb.history_length
        << ", Prefetch degree: " << ghb.degree << "\n"
        << "SMS               | PHT size: " << sms.pht_entries
        << ", AGT size: " << sms.agt_entries
        << ", Filter Table: " << sms.filter_entries
        << ", Region size: " << sms.region_bytes / 1024 << "kB\n";
    return out.str();
}

std::string
SystemConfig::dramLatencyLabel() const
{
    std::ostringstream out;
    out << memory.dram_latency << " cycles access";
    return out.str();
}

} // namespace csp
