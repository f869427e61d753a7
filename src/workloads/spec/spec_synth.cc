#include "workloads/spec/spec_synth.h"

#include <algorithm>
#include <numeric>

#include "core/rng.h"
#include "hints/hint.h"

namespace csp::workloads::spec {

namespace {

constexpr Addr kPcBase = 0x00700000;
/// Each stream owns a disjoint 256MB slice of the address space.
constexpr Addr kStreamSlice = 256ull << 20;
constexpr Addr kHeapBase = 0x20000000ull;

/** Runtime state of one stream. */
struct StreamState
{
    StreamSpec spec;
    Addr base = 0;
    Addr cursor = 0;
    std::uint32_t site = 0;         ///< synthetic PC site
    std::vector<std::uint32_t> chain; ///< PointerChase successor perm
    std::uint32_t chain_pos = 0;
    std::uint16_t type_id = 0;
};

} // namespace

const std::vector<SpecProfile> &
specProfiles()
{
    using K = StreamKind;
    static const std::vector<SpecProfile> profiles = [] {
        std::vector<SpecProfile> p;
        const auto MB = [](std::uint64_t m) { return m << 20; };
        const auto KB = [](std::uint64_t k) { return k << 10; };
        // name, mem_fraction, branch_fraction, streams
        p.push_back({"sjeng", 0.30, 0.22,
                     {{K::Resident, 6, KB(48), 64, 2},
                      {K::Gather, 0.5, MB(4), 64, 1},
                      {K::Stack, 2, KB(8), 64, 2}}});
        p.push_back({"povray", 0.32, 0.16,
                     {{K::Resident, 8, KB(40), 64, 3},
                      {K::Stack, 2, KB(8), 64, 2},
                      {K::Stride, 1, KB(96), 64, 2}}});
        p.push_back({"soplex", 0.38, 0.14,
                     {{K::Stride, 3, MB(32), 8, 8},
                      {K::Gather, 3, MB(48), 64, 2},
                      {K::Resident, 2, KB(32), 64, 2}}});
        p.push_back({"dealII", 0.36, 0.14,
                     {{K::Stride, 4, MB(16), 8, 6},
                      {K::Gather, 2, MB(24), 64, 2},
                      {K::Resident, 3, KB(32), 64, 2}}});
        p.push_back({"h264ref", 0.35, 0.12,
                     {{K::Stride, 5, MB(2), 16, 8},
                      {K::Resident, 3, KB(48), 64, 3},
                      {K::Gather, 1, MB(8), 64, 1}}});
        p.push_back({"gobmk", 0.30, 0.24,
                     {{K::Resident, 6, KB(56), 64, 2},
                      {K::Gather, 0.5, MB(4), 64, 1},
                      {K::Stack, 2, KB(8), 64, 2}}});
        p.push_back({"hmmer", 0.40, 0.08,
                     {{K::Stride, 8, KB(48), 4, 12},
                      {K::Resident, 2, KB(24), 64, 3},
                      {K::Gather, 1, KB(768), 64, 1}}});
        p.push_back({"bzip2", 0.34, 0.16,
                     {{K::Stride, 3, MB(8), 1, 8},
                      {K::Gather, 3, MB(8), 64, 2},
                      {K::Resident, 2, KB(32), 64, 2}}});
        p.push_back({"milc", 0.40, 0.06,
                     {{K::Stride, 6, MB(96), 64, 12},
                      {K::Stride, 2, MB(96), 128, 8},
                      {K::Resident, 1, KB(16), 64, 2}}});
        p.push_back({"namd", 0.36, 0.08,
                     {{K::Resident, 5, KB(56), 64, 4},
                      {K::Stride, 3, KB(640), 32, 6},
                      {K::Gather, 1, MB(1), 64, 1}}});
        p.push_back({"omnetpp", 0.36, 0.18,
                     {{K::PointerChase, 6, MB(2), 64, 8, 16384},
                      {K::Gather, 1, MB(8), 64, 1},
                      {K::Resident, 2, KB(32), 64, 2}}});
        p.push_back({"astar", 0.34, 0.18,
                     {{K::PointerChase, 4, MB(3), 64, 4, 24576},
                      {K::Gather, 3, MB(16), 64, 2},
                      {K::Resident, 2, KB(32), 64, 2}}});
        p.push_back({"libquantum", 0.32, 0.14,
                     {{K::Stride, 9, MB(64), 16, 16},
                      {K::Resident, 1, KB(8), 64, 2}}});
        p.push_back({"mcf", 0.38, 0.16,
                     {{K::PointerChase, 6, MB(6), 64, 8, 49152},
                      {K::Gather, 2, MB(32), 64, 2},
                      {K::Resident, 2, KB(32), 64, 2}}});
        p.push_back({"sphinx3", 0.36, 0.12,
                     {{K::Stride, 4, MB(16), 8, 8},
                      {K::Gather, 3, MB(16), 64, 2},
                      {K::Resident, 2, KB(32), 64, 2}}});
        p.push_back({"lbm", 0.42, 0.04,
                     {{K::Stride, 8, MB(128), 64, 16},
                      {K::Stride, 2, MB(128), 192, 8}}});
        return p;
    }();
    return profiles;
}

trace::TraceBuffer
SpecSynth::generate(const WorkloadParams &params) const
{
    Rng rng(params.seed ^ 0x5bec2006ull);
    trace::TraceBuffer buffer;
    trace::Recorder rec(buffer, kPcBase);
    hints::TypeEnumerator types;

    // Instantiate stream states over disjoint address slices.
    std::vector<StreamState> streams;
    double total_weight = 0.0;
    for (std::size_t i = 0; i < profile_.streams.size(); ++i) {
        StreamState state;
        state.spec = profile_.streams[i];
        state.base = kHeapBase + kStreamSlice * i;
        state.cursor = 0;
        state.site = static_cast<std::uint32_t>(i * 8);
        state.type_id = types.fresh();
        if (state.spec.kind == StreamKind::PointerChase) {
            // A recurring hot path of path_nodes nodes, spread sparsely
            // over the region (few hot lines per 2kB spatial region, so
            // purely spatial schemes find nothing to correlate) with
            // local allocation jitter (semantic neighbours stay within
            // short-pointer reach). state.chain[i] holds the byte
            // offset of the i-th node on the path; traversal follows
            // path order cyclically.
            const std::uint32_t nodes = state.spec.path_nodes;
            const std::uint64_t spacing = std::max<std::uint64_t>(
                64, state.spec.region_bytes / nodes);
            state.chain.resize(nodes);
            for (std::uint32_t i = 0; i < nodes; ++i) {
                const std::uint64_t jitter =
                    rng.below(2048) & ~std::uint64_t{63};
                state.chain[i] = static_cast<std::uint32_t>(
                    (i * spacing + jitter) %
                    state.spec.region_bytes);
            }
        }
        total_weight += state.spec.weight;
        streams.push_back(std::move(state));
    }

    // Instruction mix bookkeeping: emit compute/branch filler after
    // each memory access to honour the profile's fractions.
    const double non_mem_per_mem =
        (1.0 - profile_.mem_fraction) / profile_.mem_fraction;
    const double branches_per_mem =
        profile_.branch_fraction / profile_.mem_fraction;

    const hints::Hint no_hint{};
    double branch_debt = 0.0;
    double compute_debt = 0.0;

    while (buffer.memAccesses() < params.scale) {
        // Pick a stream by weight.
        double pick = rng.uniform() * total_weight;
        StreamState *chosen = &streams.back();
        for (StreamState &state : streams) {
            pick -= state.spec.weight;
            if (pick <= 0.0) {
                chosen = &state;
                break;
            }
        }
        StreamState &s = *chosen;
        const StreamSpec &spec = s.spec;
        for (unsigned b = 0; b < spec.burst; ++b) {
            Addr addr = 0;
            switch (spec.kind) {
              case StreamKind::Stride:
                addr = s.base + s.cursor;
                s.cursor = (s.cursor + static_cast<Addr>(spec.stride)) %
                           spec.region_bytes;
                rec.load(s.site, addr, no_hint, /*loaded_value=*/0);
                break;
              case StreamKind::PointerChase: {
                addr = s.base + s.chain[s.chain_pos];
                // Data-dependent short-circuits (early list exits,
                // search pruning) occasionally skip a node, so the
                // per-visit footprint varies even though the path
                // recurs — the distance variation the paper's bell
                // reward is designed to absorb.
                const std::uint32_t step = rng.chance(0.08) ? 2 : 1;
                const auto next_pos = static_cast<std::uint32_t>(
                    (s.chain_pos + step) % s.chain.size());
                const Addr next_addr = s.base + s.chain[next_pos];
                const hints::Hint chase_hint{s.type_id, 0,
                                             hints::RefForm::Arrow};
                rec.load(s.site, addr, chase_hint, next_addr,
                         /*dep_on_prev_load=*/true);
                s.chain_pos = next_pos;
                break;
              }
              case StreamKind::Gather: {
                addr = s.base +
                       alignDown(rng.below(spec.region_bytes), 8);
                const hints::Hint gather_hint{s.type_id,
                                              hints::kNoLinkOffset,
                                              hints::RefForm::Index};
                rec.load(s.site, addr, gather_hint,
                         /*loaded_value=*/rng.next() & 0xffff);
                break;
              }
              case StreamKind::Resident:
                addr = s.base +
                       alignDown(rng.below(spec.region_bytes), 8);
                rec.load(s.site, addr, no_hint);
                break;
              case StreamKind::Stack:
                // Push/pop pairs walking a few frames down and up.
                addr = s.base +
                       alignDown(s.cursor % spec.region_bytes, 8);
                if (rng.chance(0.5)) {
                    rec.store(s.site, addr, no_hint);
                    s.cursor += 16;
                } else {
                    rec.load(s.site, addr, no_hint);
                    s.cursor = s.cursor >= 16 ? s.cursor - 16 : 0;
                }
                break;
            }
            // Filler instructions to honour the instruction mix.
            branch_debt += branches_per_mem;
            compute_debt += non_mem_per_mem - branches_per_mem;
            if (branch_debt >= 1.0) {
                const auto n = static_cast<unsigned>(branch_debt);
                for (unsigned i = 0; i < n; ++i)
                    rec.branch(s.site + 1, rng.chance(0.6));
                branch_debt -= n;
            }
            if (compute_debt >= 1.0) {
                const auto n =
                    static_cast<std::uint32_t>(compute_debt);
                rec.compute(s.site + 2, n);
                compute_debt -= n;
            }
        }
    }
    return buffer;
}

} // namespace csp::workloads::spec
