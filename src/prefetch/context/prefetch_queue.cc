#include "prefetch/context/prefetch_queue.h"

#include "core/logging.h"

namespace csp::prefetch::ctx {

PrefetchQueue::PrefetchQueue(unsigned capacity)
    : ring_(capacity), words_((capacity + 63) / 64), real_(words_, 0)
{
    CSP_ASSERT(capacity > 0);
    // Most feedback probes miss. Room for twice the lines the queue can
    // index keeps the map near quarter load, where miss probes are
    // short.
    index_.reserve(2 * std::size_t{capacity});
    clearIndex();
}

void
PrefetchQueue::demoteToShadow(Addr line)
{
    const std::uint32_t *row = index_.find(line);
    if (row == nullptr)
        return;
    const std::uint64_t *bits = bitsOf(*row);
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
PrefetchQueue::clearIndex()
{
    const std::size_t rows = ring_.size() + 1;
    index_.clear();
    bits_.assign(rows * words_, 0);
    free_rows_.resize(rows);
    for (std::size_t r = 0; r < rows; ++r)
        free_rows_[r] = static_cast<std::uint32_t>(r);
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

} // namespace csp::prefetch::ctx
