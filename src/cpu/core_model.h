/**
 * @file
 * Approximate out-of-order core timing model.
 *
 * The model reproduces the timing mechanisms the paper's results depend
 * on, without simulating an x86 pipeline microarchitecture:
 *
 *  - W-wide fetch/dispatch (Table 2: 4-wide),
 *  - a reorder buffer of fixed capacity (192) that gates dispatch when
 *    full — this is what bounds how many long-latency misses can overlap,
 *  - a load queue (32) gating outstanding loads,
 *  - in-order retirement (retire times are monotonic),
 *  - explicit serialisation of dependent loads (pointer chases), driven
 *    by the trace's dep_on_prev_load flag.
 *
 * Together with the MSHR-bounded hierarchy this yields the
 * memory-level-parallelism behaviour of the gem5 configuration in paper
 * Table 2. IPC is instructions / elapsed cycles.
 */

#ifndef CSP_CPU_CORE_MODEL_H
#define CSP_CPU_CORE_MODEL_H

#include <vector>

#include "core/config.h"
#include "core/types.h"

namespace csp::cpu {

/** See file comment. */
class CoreModel
{
  public:
    explicit CoreModel(const CoreConfig &config);

    /**
     * Dispatch the next instruction: consumes one fetch slot, applies
     * the ROB-full gate, and keeps dispatch monotonic. Returns the cycle
     * at which the instruction may begin executing.
     */
    Cycle dispatchNext();

    /** Additional gate for loads: load-queue capacity and, when
     *  @p dep_on_prev_load, the completion of the previous load. */
    Cycle loadIssueAt(Cycle dispatch, bool dep_on_prev_load);

    /** Register completion of the current instruction (any kind). */
    void complete(Cycle done);

    /** Register completion of a load (also feeds dependent loads). */
    void completeLoad(Cycle done);

    /** Dispatch + complete a burst of @p count 1-cycle instructions. */
    void computeBurst(std::uint32_t count);

    /** Cycles elapsed so far (last retirement). */
    Cycle elapsed() const { return elapsed_; }

    /** Instructions dispatched so far. */
    std::uint64_t instructions() const { return instructions_; }

    /** IPC over the run so far. */
    double
    ipc() const
    {
        return elapsed_ == 0
                   ? 0.0
                   : static_cast<double>(instructions_) /
                         static_cast<double>(elapsed_);
    }

  private:
    Cycle robGate() const;
    void robPush(Cycle retire);

    CoreConfig config_;
    std::uint64_t slot_ = 0;      ///< fetch slot counter
    Cycle fetch_ready_ = 0;       ///< dispatch monotonicity floor
    Cycle last_retire_ = 0;       ///< in-order retirement floor
    Cycle last_load_complete_ = 0;
    Cycle elapsed_ = 0;
    std::uint64_t instructions_ = 0;

    std::vector<Cycle> rob_;      ///< ring of retire times
    std::size_t rob_head_ = 0;
    std::size_t rob_count_ = 0;

    std::vector<Cycle> lq_;       ///< ring of load completion times
    std::size_t lq_head_ = 0;
    std::size_t lq_count_ = 0;
};

} // namespace csp::cpu

#endif // CSP_CPU_CORE_MODEL_H
