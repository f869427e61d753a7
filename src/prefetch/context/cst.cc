#include "prefetch/context/cst.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/logging.h"
#include "core/types.h"

namespace csp::prefetch::ctx {

Cst::Cst(const ContextPrefetcherConfig &config)
    : index_bits_(floorLog2(config.cst_entries)),
      index_mask_((1u << index_bits_) - 1),
      entries_(config.cst_entries),
      arena_(static_cast<std::size_t>(config.cst_entries) * kStrideWords)
{
    CSP_ASSERT(isPowerOfTwo(config.cst_entries));
}

int
Cst::bestScore(std::uint32_t reduced_key) const
{
    const std::uint32_t index = indexOf(reduced_key);
    const Entry &entry = *entryAt(index);
    const std::int8_t *const scores = deltasAt(index) + kLinks;
    int best = -128;
    std::uint32_t mask = entry.link_mask;
    while (mask != 0) {
        const unsigned i =
            static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        best = std::max(best, static_cast<int>(scores[i]));
    }
    return best;
}

bool
Cst::randomLink(std::uint32_t reduced_key, Rng &rng,
                std::int32_t *delta_out) const
{
    const std::uint32_t index = indexOf(reduced_key);
    const Entry &entry = *entryAt(index);
    if (entry.valid == 0 || entry.tag != tagOf(reduced_key))
        return false;
    const std::int8_t *const deltas = deltasAt(index);
    std::int32_t valid_deltas[kLinks];
    unsigned count = 0;
    std::uint32_t mask = entry.link_mask;
    while (mask != 0) {
        const unsigned i =
            static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        valid_deltas[count++] = deltas[i];
    }
    if (count == 0)
        return false;
    *delta_out = valid_deltas[rng.below(count)];
    return true;
}

bool
Cst::softmaxLink(std::uint32_t reduced_key, Rng &rng,
                 double temperature, std::int32_t *delta_out) const
{
    CSP_ASSERT(temperature > 0.0);
    const std::uint32_t index = indexOf(reduced_key);
    const Entry &entry = *entryAt(index);
    if (entry.valid == 0 || entry.tag != tagOf(reduced_key))
        return false;
    const std::int8_t *const link_deltas = deltasAt(index);
    const std::int8_t *const scores = link_deltas + kLinks;
    double weights[kLinks];
    std::int32_t deltas[kLinks];
    unsigned count = 0;
    double total = 0.0;
    std::uint32_t mask = entry.link_mask;
    while (mask != 0) {
        const unsigned i =
            static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        const double w = std::exp(
            static_cast<double>(scores[i]) / temperature);
        weights[count] = w;
        deltas[count] = link_deltas[i];
        total += w;
        ++count;
    }
    if (count == 0)
        return false;
    double pick = rng.uniform() * total;
    for (unsigned i = 0; i < count; ++i) {
        pick -= weights[i];
        if (pick <= 0.0) {
            *delta_out = deltas[i];
            return true;
        }
    }
    *delta_out = deltas[count - 1];
    return true;
}

void
Cst::clearChurn(std::uint32_t reduced_key)
{
    Entry &entry = *entryAt(indexOf(reduced_key));
    if (entry.valid != 0 && entry.tag == tagOf(reduced_key))
        entry.churn = 0;
}

unsigned
Cst::liveEntries() const
{
    unsigned live = 0;
    for (std::uint32_t i = 0; i < entries_; ++i) {
        if (entryAt(i)->valid != 0)
            ++live;
    }
    return live;
}

unsigned
Cst::snapshotTopK(unsigned top_k,
                  std::vector<obs::SnapshotContext> &out) const
{
    struct Ranked
    {
        int best;
        std::uint32_t index;
    };
    std::vector<Ranked> ranked;
    unsigned live = 0;
    for (std::uint32_t i = 0; i < entries_; ++i) {
        const Entry &entry = *entryAt(i);
        if (entry.valid == 0)
            continue;
        ++live;
        const std::int8_t *const scores = deltasAt(i) + kLinks;
        int best = -128;
        std::uint32_t mask = entry.link_mask;
        while (mask != 0) {
            const unsigned j =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            best = std::max(best, static_cast<int>(scores[j]));
        }
        ranked.push_back({best, i});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &a, const Ranked &b) {
                  return a.best != b.best ? a.best > b.best
                                          : a.index < b.index;
              });
    const auto emit = std::min<std::size_t>(top_k, ranked.size());
    out.clear();
    out.reserve(emit);
    for (std::size_t k = 0; k < emit; ++k) {
        const std::uint32_t index = ranked[k].index;
        const Entry &entry = *entryAt(index);
        const std::int8_t *const deltas = deltasAt(index);
        const std::int8_t *const scores = deltas + kLinks;
        obs::SnapshotContext ctx;
        ctx.key = (entry.tag << index_bits_) | index;
        ctx.churn = entry.churn;
        std::uint32_t mask = entry.link_mask;
        while (mask != 0) {
            const unsigned j =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            ctx.deltas[ctx.n_links] = deltas[j];
            ctx.scores[ctx.n_links] = static_cast<int>(scores[j]);
            ++ctx.n_links;
        }
        out.push_back(ctx);
    }
    return live;
}

stats::DistSummary
Cst::scoreSummary() const
{
    stats::DistSummary s;
    double sum = 0.0;
    for (std::uint32_t i = 0; i < entries_; ++i) {
        const Entry &entry = *entryAt(i);
        if (entry.valid == 0)
            continue;
        const std::int8_t *const scores = deltasAt(i) + kLinks;
        std::uint32_t mask = entry.link_mask;
        while (mask != 0) {
            const unsigned j =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            const double score = scores[j];
            if (s.count == 0) {
                s.min = score;
                s.max = score;
            } else {
                s.min = std::min(s.min, score);
                s.max = std::max(s.max, score);
            }
            sum += score;
            ++s.count;
        }
    }
    if (s.count > 0)
        s.mean = sum / static_cast<double>(s.count);
    return s;
}

} // namespace csp::prefetch::ctx
