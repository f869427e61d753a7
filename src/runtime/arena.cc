#include "runtime/arena.h"

#include <algorithm>

#include "core/logging.h"

namespace csp::runtime {

Arena::Arena(std::uint64_t capacity_bytes, Placement placement,
             std::uint64_t seed, Addr base_addr)
    : capacity_(capacity_bytes),
      placement_(placement),
      base_addr_(base_addr),
      rng_(seed),
      buffer_(new std::byte[capacity_bytes])
{
    CSP_ASSERT(capacity_bytes >= kMaxClass);
    unsigned classes = classIndex(kMaxClass) + 1;
    free_lists_.resize(classes);
}

unsigned
Arena::classIndex(std::size_t size)
{
    std::size_t rounded = kMinClass;
    unsigned index = 0;
    while (rounded < size) {
        rounded <<= 1;
        ++index;
    }
    return index;
}

std::size_t
Arena::classSize(unsigned index)
{
    return kMinClass << index;
}

void
Arena::carveSlab(unsigned class_index)
{
    const std::size_t slot = classSize(class_index);
    const std::uint64_t slab_bytes =
        static_cast<std::uint64_t>(slot) * kSlotsPerSlab;
    if (bump_ + slab_bytes > capacity_) {
        fatal("Arena exhausted: capacity %llu, need %llu more",
              static_cast<unsigned long long>(capacity_),
              static_cast<unsigned long long>(bump_ + slab_bytes -
                                              capacity_));
    }
    auto &list = free_lists_[class_index];
    const std::size_t first = list.size();
    for (std::size_t i = 0; i < kSlotsPerSlab; ++i)
        list.push_back(bump_ + i * slot);
    bump_ += slab_bytes;
    if (placement_ == Placement::Randomized) {
        // Fisher-Yates over the newly added slots only.
        for (std::size_t i = list.size() - 1; i > first; --i) {
            std::size_t j =
                first + static_cast<std::size_t>(
                            rng_.below(static_cast<std::uint64_t>(
                                i - first + 1)));
            std::swap(list[i], list[j]);
        }
    } else {
        // LIFO stack: reverse so that pops come out in address order.
        std::reverse(list.begin() + static_cast<std::ptrdiff_t>(first),
                     list.end());
    }
}

void *
Arena::allocate(std::size_t size)
{
    CSP_ASSERT(size > 0);
    if (size > kMaxClass) {
        // Large request: bump-allocate, 64-byte aligned, no reuse.
        std::uint64_t offset = alignUp(bump_, 64);
        if (offset + size > capacity_) {
            fatal("Arena exhausted on large allocation of %zu bytes",
                  size);
        }
        bump_ = offset + size;
        return buffer_.get() + offset;
    }
    unsigned cls = classIndex(size);
    auto &list = free_lists_[cls];
    if (list.empty())
        carveSlab(cls);
    std::uint64_t offset = list.back();
    list.pop_back();
    return buffer_.get() + offset;
}

Addr
Arena::addrOf(const void *ptr) const
{
    const auto *bytes = static_cast<const std::byte *>(ptr);
    CSP_ASSERT(bytes >= buffer_.get() && bytes < buffer_.get() + capacity_);
    return base_addr_ +
           static_cast<Addr>(bytes - buffer_.get());
}

} // namespace csp::runtime
