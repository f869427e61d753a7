#include "prefetch/context/prefetch_queue.h"

#include <algorithm>

#include "core/logging.h"

namespace csp::prefetch::ctx {

namespace {

std::size_t
nextPowerOfTwo(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

PrefetchQueue::PrefetchQueue(unsigned capacity) : ring_(capacity)
{
    CSP_ASSERT(capacity > 0);
    words_ = (capacity + 63) / 64;
    // At most `capacity` distinct lines are indexed at once (one more
    // inside a push); 4x slots keeps the load factor near 1/4 so probe
    // chains stay short.
    const std::size_t slots =
        std::max<std::size_t>(nextPowerOfTwo(capacity) * 4, 8);
    slot_mask_ = slots - 1;
    home_shift_ =
        64 - static_cast<unsigned>(std::countr_zero(slots));
    slots_.resize(slots);
    bits_.assign(slots * words_, 0);
    real_.assign(words_, 0);
}

void
PrefetchQueue::demoteToShadow(Addr line)
{
    const std::size_t islot = indexFind(line);
    if (islot == kNoSlot)
        return;
    const std::uint64_t *bits = bitsAt(islot);
    PendingPrefetch *newest = nullptr;
    for (unsigned w = 0; w < words_; ++w) {
        std::uint64_t word = bits[w];
        while (word != 0) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(word));
            word &= word - 1;
            PendingPrefetch &entry = ring_[w * 64 + b];
            if (!entry.shadow &&
                (newest == nullptr || entry.seq > newest->seq)) {
                newest = &entry;
            }
        }
    }
    if (newest != nullptr) {
        newest->shadow = true;
        setReal(static_cast<std::size_t>(newest - ring_.data()), false);
    }
}



void
PrefetchQueue::indexClearAll()
{
    for (IndexSlot &slot : slots_)
        slot.used = false;
    std::fill(bits_.begin(), bits_.end(), 0);
}

unsigned
PrefetchQueue::size() const
{
    unsigned live = 0;
    for (const PendingPrefetch &entry : ring_) {
        if (entry.valid)
            ++live;
    }
    return live;
}

void
PrefetchQueue::clear()
{
    for (PendingPrefetch &entry : ring_)
        entry.valid = false;
    pushes_ = 0;
    head_ = 0;
    indexClearAll();
}

} // namespace csp::prefetch::ctx
