/**
 * @file
 * csplearn — render learning curves, convergence diagnostics and
 * CST-health tables from the learn.json files cspsim writes under
 * --learn-out. With two files, appends a side-by-side comparison of
 * the final learning states (e.g. two seeds, or before/after a
 * policy change).
 *
 * Reading a file checks it against every csp-learn-v2 rule (the CST
 * counters add up, snapshot instructions strictly increase, epsilon,
 * accuracy and entropy stay in [0, 1], link scores fit Score8); a file
 * that breaks one is refused, naming the rule.
 *
 * Exit codes:
 *   0  report rendered
 *   3  usage or file/format error, or a file that breaks a rule
 *
 * Examples:
 *   csplearn learn.json
 *   csplearn base/learn.json new/learn.json --report report.txt
 *   csplearn learn.json --rows 32 --contexts 16
 */

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "cli.h"
#include "diff/csp_diff.h"
#include "diff/learn_report.h"

namespace {

void
usage()
{
    std::cout <<
        "usage: csplearn A [B] [options]\n"
        "  A [B]            learn.json files from cspsim --learn-out\n"
        "                   (two files appends a comparison section)\n"
        "  --rows N         learning-curve rows shown (default 16)\n"
        "  --contexts N     top contexts shown (default 8)\n"
        "  --report FILE    also write the report to FILE (parent\n"
        "                   directories are created)\n";
}

bool
loadLearnDoc(const std::string &path, csp::diff::FlatDoc &doc)
{
    std::string content;
    if (!csp::readFileToString(path, content)) {
        std::cerr << "csplearn: cannot read " << path << "\n";
        return false;
    }
    std::string error;
    if (!csp::diff::parseJsonFlat(content, doc, &error) ||
        !csp::diff::isLearnDoc(doc, &error)) {
        std::cerr << "csplearn: " << path << ": " << error << "\n";
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
    csp::diff::LearnReportOptions options;

    const auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "csplearn: missing value for " << argv[i]
                      << "\n";
            std::exit(3);
        }
        return argv[++i];
    };
    const auto need_number = [&](int &i, auto &out) {
        const char *flag = argv[i];
        csp::tools::requireUnsigned("csplearn", flag, need_value(i), out);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--rows") {
            need_number(i, options.max_rows);
        } else if (arg == "--contexts") {
            need_number(i, options.max_contexts);
        } else if (arg == "--report") {
            report_path = need_value(i);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "csplearn: unknown option " << arg
                      << " (try --help)\n";
            return 3;
        } else if (path_a.empty()) {
            path_a = arg;
        } else if (path_b.empty()) {
            path_b = arg;
        } else {
            std::cerr << "csplearn: too many positional arguments\n";
            return 3;
        }
    }
    if (path_a.empty()) {
        usage();
        return 3;
    }

    csp::diff::FlatDoc doc_a;
    csp::diff::FlatDoc doc_b;
    if (!loadLearnDoc(path_a, doc_a))
        return 3;
    const bool have_b = !path_b.empty();
    if (have_b && !loadLearnDoc(path_b, doc_b))
        return 3;

    std::ostringstream report;
    std::string error;
    if (!csp::diff::renderLearnReport(doc_a, path_a,
                                      have_b ? &doc_b : nullptr,
                                      path_b, report, &error,
                                      options)) {
        std::cerr << "csplearn: " << error << "\n";
        return 3;
    }
    std::cout << report.str();

    csp::tools::writeReport("csplearn", report_path, report.str());
    return 0;
}
