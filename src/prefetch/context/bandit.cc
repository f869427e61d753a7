#include "prefetch/context/bandit.h"

namespace csp::prefetch::ctx {

BanditPolicy::BanditPolicy(const ContextPrefetcherConfig &config,
                           std::uint64_t seed)
    : config_(config),
      rng_(seed),
      accuracy_(0.005, 0.0)
{
    refreshDerived();
}

} // namespace csp::prefetch::ctx
