/**
 * @file
 * Global History Buffer prefetcher (Nesbit & Smith, HPCA 2004) in its two
 * delta-correlating flavors evaluated by the paper: Global/DC (one global
 * access stream) and PC/DC (streams localised by the load PC).
 *
 * The GHB is a circular buffer of recent access addresses; each entry is
 * chained to the previous entry of the same index-table key. Delta
 * correlation walks the key's recent address stream, takes the last
 * `history_length - 1` deltas as a pattern, finds that pattern's most
 * recent previous occurrence in the stream, and replays the deltas that
 * followed it as prefetch candidates.
 *
 * Following the original design, the GHB trains on the L1 miss stream
 * (plus accesses that hit prefetched lines, so training continues once
 * prefetching becomes effective).
 */

#ifndef CSP_PREFETCH_GHB_H
#define CSP_PREFETCH_GHB_H

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "prefetch/prefetcher.h"

namespace csp::prefetch {

/** Index-table localisation of the GHB. */
enum class GhbFlavor
{
    GlobalDC, ///< one global stream ("G/DC")
    PcDC,     ///< streams localised by load PC ("PC/DC")
};

/** See file comment. */
class GhbPrefetcher final : public Prefetcher
{
  public:
    GhbPrefetcher(const GhbConfig &config, GhbFlavor flavor,
                  unsigned line_bytes = 64);

    std::string name() const override;

    void observe(const AccessInfo &info,
                 std::vector<PrefetchRequest> &out) override;

    void registerStats(stats::Registry &registry) const override;

  private:
    struct GhbEntry
    {
        Addr line = 0;
        std::uint64_t prev = kNoLink; ///< global position of predecessor
    };

    struct IndexEntry
    {
        Addr key_tag = 0;
        bool valid = false;
        std::uint64_t head = kNoLink; ///< global position of newest entry
    };

    static constexpr std::uint64_t kNoLink = ~0ull;
    /// Upper bound on the lines one chain walk reads per access.
    static constexpr std::size_t kMaxChain = 64;

    Addr indexKey(const AccessInfo &info) const;

    GhbConfig config_;
    GhbFlavor flavor_;
    unsigned line_bytes_;
    std::vector<GhbEntry> buffer_; ///< power-of-two ring
    std::uint64_t next_pos_ = 0; ///< global insertion counter
    std::vector<IndexEntry> index_; ///< power-of-two table
    std::uint64_t predictions_ = 0;
};

} // namespace csp::prefetch

#endif // CSP_PREFETCH_GHB_H
