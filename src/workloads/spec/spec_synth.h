/**
 * @file
 * Synthetic SPEC CPU2006 workload models — the substitution for running
 * SPEC binaries under gem5 (see DESIGN.md). Each of the 16 benchmarks
 * the paper evaluates (Table 3) is modelled as a weighted mixture of
 * canonical access streams whose parameters reproduce the benchmark's
 * published memory character:
 *
 *  - Stride: one or more sequential/strided array sweeps (lbm,
 *    libquantum, milc, hmmer, ...);
 *  - PointerChase: dependent loads over a randomly-permuted node cycle
 *    (mcf, omnetpp, astar, ...), carrying the compiler pointer hints;
 *  - Gather: data-dependent indexed loads over a large region (soplex,
 *    sphinx3, bzip2, ...);
 *  - Resident: accesses confined to an L1-resident region (povray,
 *    sjeng, gobmk, namd, ...);
 *  - Stack: push/pop traffic in a small hot region.
 *
 * The mixture exercises exactly the prefetcher code paths the real
 * benchmarks would; absolute speedups differ from the paper's (ours is
 * a model, not their binaries), but the per-benchmark ordering of
 * prefetchers is preserved.
 */

#ifndef CSP_WORKLOADS_SPEC_SPEC_SYNTH_H
#define CSP_WORKLOADS_SPEC_SPEC_SYNTH_H

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace csp::workloads::spec {

/** Canonical access-stream shapes. */
enum class StreamKind
{
    Stride,
    PointerChase,
    Gather,
    Resident,
    Stack,
};

/** One stream of a benchmark's mixture. */
struct StreamSpec
{
    StreamKind kind = StreamKind::Stride;
    double weight = 1.0;           ///< relative pick probability
    std::uint64_t region_bytes = 1 << 20; ///< stream working set
    std::int64_t stride = 64;      ///< Stride only
    unsigned burst = 4;            ///< consecutive accesses per pick
    /**
     * PointerChase only: number of nodes on the recurring hot path.
     * The path is spread sparsely over region_bytes with local jitter,
     * the way batch-allocated linked structures end up in real heaps:
     * spatially sparse (few hot lines per region) but with semantically
     * adjacent nodes within reach of short pointers.
     */
    unsigned path_nodes = 4096;
};

/** A benchmark profile: mixture plus instruction-mix parameters. */
struct SpecProfile
{
    std::string name;
    double mem_fraction = 0.35;    ///< memory ops per instruction
    double branch_fraction = 0.15; ///< branches per instruction
    std::vector<StreamSpec> streams;
};

/** The 16 SPEC2006 profiles of paper Table 3. */
const std::vector<SpecProfile> &specProfiles();

/** Stream-mixture trace generator; see file comment. */
class SpecSynth final : public Workload
{
  public:
    explicit SpecSynth(SpecProfile profile)
        : profile_(std::move(profile))
    {}

    std::string name() const override { return profile_.name; }
    std::string suite() const override { return "spec2006"; }
    trace::TraceBuffer generate(const WorkloadParams &params)
        const override;

  private:
    SpecProfile profile_;
};

} // namespace csp::workloads::spec

#endif // CSP_WORKLOADS_SPEC_SPEC_SYNTH_H
