/** @file The five baseline prefetchers read only the PC and address:
 *  the simulator hands them a null context and no free-MSHR count, and
 *  each must predict exactly what it predicts when given both. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/config.h"
#include "prefetch/prefetcher.h"
#include "sim/experiment.h"
#include "trace/hw_state.h"
#include "workloads/registry.h"

namespace csp::prefetch {
namespace {

/** Every request @p prefetcher emits over @p trace's memory accesses,
 *  in order. With @p with_context, each access carries the captured
 *  machine context and 4 free MSHRs; without, neither. */
std::vector<PrefetchRequest>
replay(Prefetcher &prefetcher, const trace::TraceBuffer &trace,
       bool with_context)
{
    trace::HwContextTracker hw;
    trace::ContextSnapshot ctx;
    std::vector<PrefetchRequest> out;
    std::vector<PrefetchRequest> all;
    AccessSeq seq = 0;
    trace::TraceCursor cursor = trace.cursor();
    while (const trace::TraceRecord *rec = cursor.next()) {
        if (rec->isMem()) {
            AccessInfo info;
            info.seq = seq;
            info.cycle = 4 * seq;
            info.pc = rec->pc;
            info.vaddr = rec->vaddr;
            info.line_addr = alignDown(rec->vaddr, 64);
            info.l1_miss = seq % 3 != 0;
            info.hit_prefetched_line = seq % 7 == 0;
            if (with_context) {
                hw.captureInto(*rec, ctx);
                info.context = &ctx;
                info.free_l1_mshrs = 4;
            }
            out.clear();
            prefetcher.observe(info, out);
            for (const PrefetchRequest &req : out) {
                all.push_back(req);
                prefetcher.onPrefetchOutcome(req.addr,
                                             mem::PrefetchOutcome::Issued);
            }
            ++seq;
        }
        hw.update(*rec);
    }
    prefetcher.finish();
    return all;
}

TEST(BaselinesWithoutContext, PredictExactlyWhatTheyPredictWithIt)
{
    workloads::WorkloadParams params;
    params.scale = 20000;
    const trace::TraceBuffer trace =
        workloads::Registry::builtin().create("mcf")->generate(params);
    const SystemConfig config;
    std::size_t baselines = 0;
    for (const std::string &name : sim::paperPrefetchers()) {
        if (sim::makePrefetcher(name, config)->readsContext())
            continue;
        ++baselines;
        auto bare = sim::makePrefetcher(name, config);
        auto given = sim::makePrefetcher(name, config);
        const std::vector<PrefetchRequest> a = replay(*bare, trace, false);
        const std::vector<PrefetchRequest> b = replay(*given, trace, true);
        ASSERT_EQ(a.size(), b.size()) << name;
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].addr, b[i].addr) << name << " request " << i;
            ASSERT_EQ(a[i].shadow, b[i].shadow) << name << " request " << i;
            ASSERT_EQ(a[i].pc, b[i].pc) << name << " request " << i;
        }
        if (name != "none") {
            EXPECT_GT(a.size(), 0u) << name << " never predicted";
        }
    }
    EXPECT_EQ(baselines, 5u);
    EXPECT_TRUE(sim::makePrefetcher("context", config)->readsContext());
}

} // namespace
} // namespace csp::prefetch
