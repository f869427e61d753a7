/** @file Steady-state allocation audit of the Context-States Table.
 *
 *  With links inlined into one contiguous arena, every CST operation
 *  after construction must run without touching the heap. This binary
 *  overrides global operator new/delete with counting wrappers (which
 *  is why the test lives in its own test executable) and asserts the
 *  allocation counter does not move across a steady-state workout of
 *  the full CST API. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/rng.h"
#include "prefetch/context/cst.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++g_allocations;
    const std::size_t alignment = static_cast<std::size_t>(align);
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    if (void *p = std::aligned_alloc(alignment,
                                     rounded == 0 ? alignment : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

namespace csp::prefetch::ctx {
namespace {

TEST(CstAllocation, SteadyStateOperationIsHeapFree)
{
    ContextPrefetcherConfig config;
    config.cst_entries = 256;
    Cst cst(config); // construction may allocate (table + arena)
    Rng rng(42);

    const std::uint64_t before = g_allocations.load();
    for (int step = 0; step < 200000; ++step) {
        const auto key = static_cast<std::uint32_t>(rng.below(4096));
        const auto delta =
            static_cast<std::int32_t>(rng.below(64)) - 32;
        cst.addLink(key, delta);
        cst.reward(key, delta,
                   static_cast<int>(rng.below(5)) - 2);
        std::int32_t deltas[Cst::kLinks];
        int scores[Cst::kLinks];
        cst.bestLinks(key, deltas, Cst::kLinks, 0, scores);
        std::int32_t chosen;
        cst.randomLink(key, rng, &chosen);
        cst.softmaxLink(key, rng, 2.0, &chosen);
        if ((step & 1023) == 0) {
            cst.clearChurn(key);
            (void)cst.liveEntries();
        }
    }
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after, before)
        << (after - before)
        << " heap allocations during steady-state CST operation";
}

} // namespace
} // namespace csp::prefetch::ctx
