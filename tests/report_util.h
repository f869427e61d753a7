/** @file Byte comparison of stats reports. Every run's report closes
 *  with the layer ledger's `prof.*` wall-clock stats, the only values
 *  two runs of one cell do not share; tests that compare reports byte
 *  for byte compare them without it. */

#ifndef CSP_TESTS_REPORT_UTIL_H
#define CSP_TESTS_REPORT_UTIL_H

#include <string>
#include <vector>

#include "core/stats_registry.h"

namespace csp {

/** Whether @p name is a ledger stat. */
inline bool
isProf(const std::string &name)
{
    return name.rfind("prof.", 0) == 0;
}

/** @p report as JSON without its prof.* stats. */
inline std::string
reportJsonWithoutProf(stats::Report report)
{
    std::erase_if(report.entries, [](const stats::ReportEntry &entry) {
        return isProf(entry.name);
    });
    return report.toJson();
}

} // namespace csp

#endif // CSP_TESTS_REPORT_UTIL_H
