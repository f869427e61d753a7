/**
 * @file
 * cspmem — render miss-taxonomy, set-pressure, pollution-attribution
 * and queue-depth tables from the mem.json files cspsim writes under
 * --mem-out. With two files, appends a side-by-side comparison of the
 * two miss taxonomies (e.g. context vs stride prefetching on the same
 * workload — "where did the misses go").
 *
 * Reading a file checks it against every csp-mem-v2 rule (miss
 * classes sum to the classified misses, pollution attribution adds up
 * to the pollution class, set indices and shares are in range,
 * timeline instructions strictly increase); a file that breaks one is
 * refused, naming the rule.
 *
 * Exit codes:
 *   0  report rendered
 *   3  usage or file/format error, or a file that breaks a rule
 *
 * Examples:
 *   cspmem mem.json
 *   cspmem context/mem.json stride/mem.json --report report.txt
 *   cspmem mem.json --sets 8 --pairs 16
 */

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "cli.h"
#include "diff/csp_diff.h"
#include "diff/mem_report.h"

namespace {

void
usage()
{
    std::cout <<
        "usage: cspmem A [B] [options]\n"
        "  A [B]            mem.json files from cspsim --mem-out\n"
        "                   (two files appends a comparison section)\n"
        "  --sets N         hot sets shown per level (default 4)\n"
        "  --pairs N        pollution pairs shown (default 8)\n"
        "  --pcs N          demand PCs shown (default 8)\n"
        "  --timeline N     timeline rows shown (default 8)\n"
        "  --report FILE    also write the report to FILE (parent\n"
        "                   directories are created)\n";
}

bool
loadMemDoc(const std::string &path, csp::diff::FlatDoc &doc)
{
    std::string content;
    if (!csp::readFileToString(path, content)) {
        std::cerr << "cspmem: cannot read " << path << "\n";
        return false;
    }
    std::string error;
    if (!csp::diff::parseJsonFlat(content, doc, &error) ||
        !csp::diff::isMemDoc(doc, &error)) {
        std::cerr << "cspmem: " << path << ": " << error << "\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path_a;
    std::string path_b;
    std::string report_path;
    csp::diff::MemReportOptions options;

    const auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "cspmem: missing value for " << argv[i]
                      << "\n";
            std::exit(3);
        }
        return argv[++i];
    };
    const auto need_number = [&](int &i, auto &out) {
        const char *flag = argv[i];
        csp::tools::requireUnsigned("cspmem", flag, need_value(i), out);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--sets") {
            need_number(i, options.max_sets);
        } else if (arg == "--pairs") {
            need_number(i, options.max_pairs);
        } else if (arg == "--pcs") {
            need_number(i, options.max_pcs);
        } else if (arg == "--timeline") {
            need_number(i, options.max_timeline);
        } else if (arg == "--report") {
            report_path = need_value(i);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "cspmem: unknown option " << arg
                      << " (try --help)\n";
            return 3;
        } else if (path_a.empty()) {
            path_a = arg;
        } else if (path_b.empty()) {
            path_b = arg;
        } else {
            std::cerr << "cspmem: too many positional arguments\n";
            return 3;
        }
    }
    if (path_a.empty()) {
        usage();
        return 3;
    }

    csp::diff::FlatDoc doc_a;
    csp::diff::FlatDoc doc_b;
    if (!loadMemDoc(path_a, doc_a))
        return 3;
    const bool have_b = !path_b.empty();
    if (have_b && !loadMemDoc(path_b, doc_b))
        return 3;

    std::ostringstream report;
    std::string error;
    if (!csp::diff::renderMemReport(doc_a, path_a,
                                    have_b ? &doc_b : nullptr, path_b,
                                    report, &error, options)) {
        std::cerr << "cspmem: " << error << "\n";
        return 3;
    }
    std::cout << report.str();

    csp::tools::writeReport("cspmem", report_path, report.str());
    return 0;
}
