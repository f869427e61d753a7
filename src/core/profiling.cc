#include "core/profiling.h"

#include <algorithm>
#include <string>

#include "core/stats_registry.h"

namespace csp::prof {

namespace {

std::int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median cost, in counter ticks, of one boundary: a mark() on a
 *  scratch ledger. Measured once per process, at the first replay's
 *  end. */
double
boundaryTicks()
{
    static const double ticks = [] {
        constexpr int kMarks = 256;
        std::array<double, 15> rounds{};
        for (double &round : rounds) {
            Ledger scratch;
            scratch.beginRun();
            const std::int64_t start = readCounter();
            for (int i = 0; i < kMarks; ++i)
                scratch.mark(Layer::Loop);
            round = static_cast<double>(readCounter() - start) / kMarks;
        }
        std::nth_element(rounds.begin(), rounds.begin() + 7, rounds.end());
        return rounds[7];
    }();
    return ticks;
}

} // namespace

const char *
layerName(Layer layer)
{
    static constexpr const char *kNames[] = {
        "trace.decode", "cpu",          "trace.capture", "mem.access",
        "sim.classify", "prefetch.observe", "mem.prefetch", "sim.loop",
        "sim.tick",     "prefetch.train",   "prefetch.predict",
        "prefetch.feedback", "prefetch.index", "prefetch.collect",
        "prefetch.select",   "prefetch.enqueue"};
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(Layer::Count));
    return kNames[static_cast<std::size_t>(layer)];
}

std::uint64_t
nextTimedRun(std::uint64_t start)
{
    // splitmix64 of the run's start.
    std::uint64_t z = start + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return start + kSampleEvery / 2 + (z ^ (z >> 31)) % kSampleEvery;
}

void
Ledger::begin()
{
    start_ns_ = steadyNs();
    start_counter_ = readCounter();
}

void
Ledger::end(std::uint64_t accesses)
{
    const std::int64_t end_counter = readCounter();
    accesses_ = accesses;
    replay_ns_ = static_cast<std::uint64_t>(steadyNs() - start_ns_);
    const double ns_per_tick =
        end_counter > start_counter_
            ? static_cast<double>(replay_ns_) /
                  static_cast<double>(end_counter - start_counter_)
            : 1.0;
    // Every interval holds the read that closes it; Observe's also hold
    // the nested reads inside it.
    const double boundary = boundaryTicks();
    const auto self = [boundary](std::int64_t ticks, std::uint64_t reads) {
        return std::max(0.0, static_cast<double>(ticks) -
                                 static_cast<double>(reads) * boundary);
    };
    const auto at = [](Layer layer) {
        return static_cast<std::size_t>(layer);
    };
    std::uint64_t nested = 0;
    for (std::size_t i = at(Layer::Feedback); i < kLayers; ++i)
        nested += calls_[i];
    std::array<double, kLayers> layer_ticks{};
    double timed = 0.0;
    for (std::size_t i = 0; i < kLayers; ++i) {
        layer_ticks[i] = self(
            ticks_[i], calls_[i] + (i == at(Layer::Observe) ? nested : 0));
        if (i <= at(Layer::Loop))
            timed += layer_ticks[i];
    }
    const auto sum = [&](Layer total, Layer first, Layer last) {
        layer_ticks[at(total)] = 0.0;
        calls_[at(total)] = 0;
        for (std::size_t i = at(first); i <= at(last); ++i) {
            layer_ticks[at(total)] += layer_ticks[i];
            calls_[at(total)] += calls_[i];
        }
    };
    sum(Layer::Train, Layer::Feedback, Layer::Collect);
    sum(Layer::Predict, Layer::Select, Layer::Enqueue);
    // The factor taking the timed split to the bracketed cost of every
    // access. Ticks are all timed already.
    const double bracketed =
        brackets_ == 0 ? 0.0
                       : self(bracket_ticks_, brackets_) /
                             static_cast<double>(brackets_ * kBracket);
    const double scale =
        timed > 0.0 ? bracketed * static_cast<double>(accesses) / timed
                    : 0.0;
    for (std::size_t i = 0; i < kLayers; ++i) {
        ns_[i] = static_cast<std::uint64_t>(
            layer_ticks[i] * (i == at(Layer::Tick) ? 1.0 : scale) *
                ns_per_tick +
            0.5);
    }
}

void
Ledger::registerStats(stats::Registry &registry) const
{
    const auto per_access = [this](const std::uint64_t *ns) {
        return [this, ns] {
            return accesses_ == 0 ? 0.0
                                  : static_cast<double>(*ns) /
                                        static_cast<double>(accesses_);
        };
    };
    for (std::size_t i = 0; i < kLayers; ++i) {
        const std::string base =
            std::string("prof.") + layerName(static_cast<Layer>(i));
        registry.counter(base + ".ns", &ns_[i],
                         "layer nanoseconds over the whole replay");
        registry.counter(base + ".calls", &calls_[i],
                         "timed sections charged to this layer");
        registry.gauge(base + ".ns_per_access", per_access(&ns_[i]),
                       "layer nanoseconds per demand access");
    }
    registry.counter("prof.replay.ns", &replay_ns_,
                     "wall-clock nanoseconds of the whole replay");
    registry.gauge("prof.replay.ns_per_access", per_access(&replay_ns_),
                   "replay nanoseconds per demand access");
    registry.counter("prof.timed_accesses", &timed_accesses_,
                     "demand accesses replayed through the timed step");
    registry.gauge(
        "prof.unattributed_frac",
        [this] {
            double attributed = 0.0;
            for (std::size_t i = 0;
                 i <= static_cast<std::size_t>(Layer::Tick); ++i)
                attributed += static_cast<double>(ns_[i]);
            return replay_ns_ == 0
                       ? 0.0
                       : 1.0 - attributed / static_cast<double>(replay_ns_);
        },
        "replay share the layers and ticks leave out");
}

} // namespace csp::prof
