#include "workloads/registry.h"

#include <algorithm>

#include "core/logging.h"
#include "workloads/graph/graph500.h"
#include "workloads/graph/ssca2.h"
#include "workloads/pbbs/convex_hull.h"
#include "workloads/pbbs/knn.h"
#include "workloads/pbbs/pbbs_bfs.h"
#include "workloads/pbbs/set_cover.h"
#include "workloads/pbbs/suffix_array.h"
#include "workloads/spec/spec_synth.h"
#include "workloads/ubench/array_ubench.h"
#include "workloads/ubench/bst.h"
#include "workloads/ubench/hashtest.h"
#include "workloads/ubench/linked_list.h"
#include "workloads/ubench/listsort.h"
#include "workloads/ubench/maptest.h"
#include "workloads/ubench/prim.h"
#include "workloads/ubench/ssca_lds.h"

namespace csp::workloads {

void
Registry::add(const Factory &factory)
{
    auto probe = factory();
    const std::string name = probe->name();
    CSP_ASSERT(!factories_.contains(name));
    suites_[name] = probe->suite();
    factories_[name] = factory;
}

std::unique_ptr<Workload>
Registry::create(const std::string &name) const
{
    auto it = factories_.find(name);
    if (it == factories_.end())
        fatal("unknown workload: %s", name.c_str());
    return it->second();
}

bool
Registry::contains(const std::string &name) const
{
    return factories_.contains(name);
}

std::vector<std::string>
Registry::namesInSuite(const std::string &suite) const
{
    std::vector<std::string> out;
    for (const auto &[name, label] : suites_) {
        if (label == suite)
            out.push_back(name);
    }
    return out;
}

const Registry &
Registry::builtin()
{
    static const Registry registry = [] {
        Registry r;
        registerBuiltinWorkloads(r);
        return r;
    }();
    return registry;
}

void
registerBuiltinWorkloads(Registry &registry)
{
    using graph::GraphLayout;

    // µkernels (paper Table 3, bottom rows).
    registry.add([] { return std::make_unique<ubench::ListTraversal>(); });
    registry.add([] { return std::make_unique<ubench::ArrayTraversal>(); });
    registry.add([] { return std::make_unique<ubench::ListSort>(); });
    registry.add([] { return std::make_unique<ubench::BstLookup>(); });
    registry.add([] { return std::make_unique<ubench::HashTest>(); });
    registry.add([] { return std::make_unique<ubench::MapTest>(); });
    registry.add([] { return std::make_unique<ubench::PrimMst>(); });
    registry.add([] { return std::make_unique<ubench::SscaLds>(); });

    // Graph500 + HPCS SSCA2, in both layouts (Figure 14).
    registry.add([] {
        return std::make_unique<graph::Graph500>(GraphLayout::Csr);
    });
    registry.add([] {
        return std::make_unique<graph::Graph500>(GraphLayout::Linked);
    });
    registry.add([] {
        return std::make_unique<graph::Ssca2>(GraphLayout::Csr);
    });
    registry.add([] {
        return std::make_unique<graph::Ssca2>(GraphLayout::Linked);
    });

    // PBBS.
    registry.add([] { return std::make_unique<pbbs::SuffixArray>(); });
    registry.add([] { return std::make_unique<pbbs::PbbsBfs>(); });
    registry.add([] { return std::make_unique<pbbs::SetCover>(); });
    registry.add([] { return std::make_unique<pbbs::Knn>(); });
    registry.add([] { return std::make_unique<pbbs::ConvexHull>(); });

    // SPEC2006 synthetic models.
    for (const spec::SpecProfile &profile : spec::specProfiles()) {
        registry.add([profile] {
            return std::make_unique<spec::SpecSynth>(profile);
        });
    }
}

} // namespace csp::workloads
