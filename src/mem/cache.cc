#include "mem/cache.h"

#include <utility>

#include "core/logging.h"

namespace csp::mem {

Cache::Cache(const CacheConfig &config, std::string name)
    : config_(config),
      name_(std::move(name)),
      line_bytes_(config.line_bytes),
      sets_(config.sets()),
      ways_(config.ways),
      line_shift_(floorLog2(config.line_bytes)),
      set_shift_(floorLog2(config.sets())),
      set_mask_(config.sets() - 1),
      lines_(sets_ * ways_)
{
    CSP_ASSERT(isPowerOfTwo(line_bytes_));
    CSP_ASSERT(isPowerOfTwo(sets_));
    CSP_ASSERT(ways_ > 0);
    // The shift/mask fast paths must agree with the config exactly.
    CSP_ASSERT((std::uint64_t{1} << line_shift_) == line_bytes_);
    CSP_ASSERT((std::uint64_t{1} << set_shift_) == sets_);
    CSP_ASSERT(set_mask_ == sets_ - 1);
}

std::uint64_t
Cache::countUnusedPrefetches() const
{
    std::uint64_t count = 0;
    for (const LineState &line : lines_) {
        if (line.valid && line.prefetched && !line.used)
            ++count;
    }
    return count;
}

std::uint64_t
Cache::countInflightPrefetches(Cycle now) const
{
    std::uint64_t count = 0;
    for (const LineState &line : lines_) {
        if (line.valid && line.prefetched && !line.used &&
            line.ready > now)
            ++count;
    }
    return count;
}

} // namespace csp::mem
