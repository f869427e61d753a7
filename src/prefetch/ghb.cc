#include "prefetch/ghb.h"

#include <algorithm>

#include "core/hashing.h"
#include "core/logging.h"
#include "core/stats_registry.h"

namespace csp::prefetch {

GhbPrefetcher::GhbPrefetcher(const GhbConfig &config, GhbFlavor flavor,
                             unsigned line_bytes)
    : config_(config),
      flavor_(flavor),
      line_bytes_(line_bytes),
      buffer_(config.ghb_entries),
      index_(config.index_entries)
{
    // Power-of-two tables make every slot pick a mask, never a division.
    CSP_ASSERT(isPowerOfTwo(buffer_.size()));
    CSP_ASSERT(isPowerOfTwo(index_.size()));
    CSP_ASSERT(config.history_length >= 1 &&
               config.history_length < kMaxChain);
}

std::string
GhbPrefetcher::name() const
{
    return flavor_ == GhbFlavor::GlobalDC ? "ghb-gdc" : "ghb-pcdc";
}

Addr
GhbPrefetcher::indexKey(const AccessInfo &info) const
{
    return flavor_ == GhbFlavor::GlobalDC ? 0 : info.pc;
}

void
GhbPrefetcher::observe(const AccessInfo &info,
                       std::vector<PrefetchRequest> &out)
{
    // Train on the miss stream (see file comment).
    if (!info.l1_miss && !info.hit_prefetched_line)
        return;

    const Addr key = indexKey(info);
    IndexEntry &idx = index_[mix64(key) & (index_.size() - 1)];
    std::uint64_t link = kNoLink;
    if (idx.valid && idx.key_tag == key)
        link = idx.head;

    // Insert the new access at the global position.
    const std::uint64_t pos = next_pos_++;
    const std::uint64_t capacity = buffer_.size();
    buffer_[pos & (capacity - 1)] = GhbEntry{info.line_addr, link};
    idx.key_tag = key;
    idx.valid = true;
    idx.head = pos;

    // Walk the key's chain newest first, one delta per line read:
    // deltas[t] steps from the (t+1)-th newest line to the t-th. The
    // pattern is deltas[0 .. plen-1]; the candidate occurrence ending
    // q deltas back, deltas[q .. q+plen-1], is complete once deltas[t]
    // with t = q + plen - 1 is read, so candidates are tried nearest
    // first and the first match wins. The chain holds at most
    // kMaxChain lines (this access included).
    const std::size_t plen = config_.history_length - 1;
    std::int64_t deltas[kMaxChain] = {};
    Addr newer = info.line_addr;
    for (std::size_t t = 0; t + 1 < kMaxChain && link != kNoLink; ++t) {
        // A link is stale once the buffer has wrapped past it.
        if (next_pos_ - link > capacity)
            break;
        const GhbEntry &entry = buffer_[link & (capacity - 1)];
        deltas[t] = blockDelta(entry.line, newer, line_bytes_);
        if (t >= plen) {
            // Open-coded: std::equal lowers to a memcmp call here,
            // which made each step about 4x slower.
            const std::size_t q = t - plen + 1;
            std::size_t k = 0;
            while (k < plen && deltas[q + k] == deltas[k])
                ++k;
            if (k == plen) {
                // Replay the deltas that followed the matched
                // occurrence, oldest first: deltas[q-1] down to [0].
                Addr target = info.line_addr;
                const std::size_t replay =
                    std::min<std::size_t>(q, config_.degree);
                for (std::size_t i = q; i > q - replay; --i) {
                    // Unsigned, so a far delta wraps instead of
                    // overflowing; equal to the signed product otherwise.
                    target += static_cast<Addr>(deltas[i - 1]) * line_bytes_;
                    if (target != info.line_addr) {
                        out.push_back({target, false, info.pc});
                        ++predictions_;
                    }
                }
                return;
            }
        }
        if (entry.prev != kNoLink && entry.prev >= link)
            break; // defensive: links must strictly decrease
        newer = entry.line;
        link = entry.prev;
    }
}

void
GhbPrefetcher::registerStats(stats::Registry &registry) const
{
    const std::string prefix = "prefetch." + name();
    registry.counter(prefix + ".predictions", &predictions_,
                     "prefetch candidates emitted");
    registry.gauge(
        prefix + ".index_live",
        [this] {
            double live = 0.0;
            for (const IndexEntry &entry : index_)
                live += entry.valid ? 1.0 : 0.0;
            return live;
        },
        "valid index-table entries");
}

} // namespace csp::prefetch
