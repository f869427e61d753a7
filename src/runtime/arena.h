/**
 * @file
 * Deterministic simulated heap.
 *
 * Workload kernels build real, operating data structures (lists, trees,
 * graphs) inside an Arena. The arena hands out host pointers backed by one
 * contiguous buffer, and every host pointer maps 1:1 to a *simulated*
 * virtual address that the trace layer reports to the memory model. This
 * gives three properties the experiments need:
 *
 *  1. Determinism — identical seeds produce identical address streams, so
 *     every figure regenerates bit-exactly.
 *  2. Controlled layout — with placement randomisation on, consecutive
 *     allocations land in shuffled slots of a slab, reproducing the
 *     "dynamically allocated at random points" layouts of paper Figure 1
 *     without depending on host-allocator behaviour.
 *  3. Layout contrast — the same kernel can run over a sequential arena
 *     (spatially-optimised layout) and a randomised one (naive linked
 *     layout) for the Figure 14 experiment.
 *
 * Allocation uses power-of-two size classes with slab carving: each
 * class pops slots from the free stack its slabs were carved into.
 * Nothing is freed; a workload's heap lives as long as its arena.
 */

#ifndef CSP_RUNTIME_ARENA_H
#define CSP_RUNTIME_ARENA_H

#include <cstddef>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "core/types.h"

namespace csp::runtime {

/** Placement policy for newly carved slabs. */
enum class Placement
{
    Sequential, ///< slots handed out in address order (spatial layout)
    Randomized, ///< slots handed out in shuffled order (scattered layout)
};

/** Deterministic simulated heap; see file comment. */
class Arena
{
  public:
    /**
     * @param capacity_bytes backing-buffer size; allocation beyond it is
     *        a fatal error (size your workload accordingly).
     * @param placement slot hand-out order within carved slabs.
     * @param seed shuffle seed for randomised placement.
     * @param base_addr simulated address of the first byte.
     */
    explicit Arena(std::uint64_t capacity_bytes,
                   Placement placement = Placement::Sequential,
                   std::uint64_t seed = 1,
                   Addr base_addr = 0x10000000ull);

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Allocate @p size bytes; returns a host pointer into the buffer. */
    void *allocate(std::size_t size);

    /** Typed allocation + default construction. */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        void *raw = allocate(sizeof(T));
        return new (raw) T(std::forward<Args>(args)...);
    }

    /** Simulated address of a host pointer returned by allocate(). */
    Addr addrOf(const void *ptr) const;

    /** Simulated base address. */
    Addr baseAddr() const { return base_addr_; }

    /** Bytes handed out to live allocations. */
    std::uint64_t bytesLive() const { return bytes_live_; }

    /** High-water mark of carved slab space. */
    std::uint64_t bytesCarved() const { return bump_; }

    /** Backing capacity. */
    std::uint64_t capacity() const { return capacity_; }

  private:
    /// Slots carved per slab, per size class.
    static constexpr std::size_t kSlotsPerSlab = 64;
    /// Smallest size class in bytes.
    static constexpr std::size_t kMinClass = 16;
    /// Largest slabbed size class; bigger requests are bump-allocated.
    static constexpr std::size_t kMaxClass = 8192;

    static unsigned classIndex(std::size_t size);
    static std::size_t classSize(unsigned index);

    void carveSlab(unsigned class_index);

    std::uint64_t capacity_;
    Placement placement_;
    Addr base_addr_;
    Rng rng_;
    std::unique_ptr<std::byte[]> buffer_;
    std::uint64_t bump_ = 0;      ///< next un-carved offset
    std::uint64_t bytes_live_ = 0;
    /// Carved slots not yet handed out, per size class (LIFO).
    std::vector<std::vector<std::uint64_t>> free_lists_;
};

} // namespace csp::runtime

#endif // CSP_RUNTIME_ARENA_H
