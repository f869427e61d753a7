#include "prefetch/context/history_queue.h"

#include "core/logging.h"

namespace csp::prefetch::ctx {

HistoryQueue::HistoryQueue(unsigned capacity,
                           std::vector<unsigned> sample_depths)
    : capacity_(capacity), depths_(std::move(sample_depths)),
      ring_(capacity)
{
    CSP_ASSERT(capacity > 0);
    if (depths_.empty()) {
        // Default ladder: spans the positive reward window (18-50) so
        // that every association made by the collection unit can earn
        // positive feedback when the pattern recurs.
        depths_ = {18, 21, 24, 27, 30, 34, 38, 42, 46, 50};
        std::erase_if(depths_,
                      [this](unsigned d) { return d > capacity_; });
        if (depths_.empty())
            depths_ = {1};
    }
    for (unsigned depth : depths_)
        CSP_ASSERT(depth >= 1 && depth <= capacity_);
}

} // namespace csp::prefetch::ctx
