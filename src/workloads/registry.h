/**
 * @file
 * Workload registry: name -> factory, with suite filtering. The
 * benchmark suite of paper Table 3 is registered by
 * registerBuiltinWorkloads().
 */

#ifndef CSP_WORKLOADS_REGISTRY_H
#define CSP_WORKLOADS_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace csp::workloads {

/** See file comment. */
class Registry
{
  public:
    using Factory = std::function<std::unique_ptr<Workload>()>;

    /** Register @p factory under the name its product reports. */
    void add(const Factory &factory);

    /** Instantiate a workload by name; fatal() on unknown names. */
    std::unique_ptr<Workload> create(const std::string &name) const;

    /** True iff @p name is registered. */
    bool contains(const std::string &name) const;

    /** Names filtered by suite label, sorted. */
    std::vector<std::string> namesInSuite(const std::string &suite) const;

    /** The registry with the paper's full benchmark set. */
    static const Registry &builtin();

  private:
    std::map<std::string, Factory> factories_;
    std::map<std::string, std::string> suites_; ///< name -> suite
};

/** Register every workload of paper Table 3 (plus layout variants). */
void registerBuiltinWorkloads(Registry &registry);

} // namespace csp::workloads

#endif // CSP_WORKLOADS_REGISTRY_H
