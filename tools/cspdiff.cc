/**
 * @file
 * cspdiff — compare two run artefacts (stats JSON, sweep/interval CSV,
 * bench scorecard JSON) and classify every delta as correctness drift,
 * a timing excursion, or a provenance difference.
 *
 * Exit codes (CI contract):
 *   0  no correctness drift, timing within the band
 *   1  a must-be-bit-identical stat differs (or --require-same-input
 *      failed)
 *   2  a timing/throughput stat moved outside the tolerance band
 *   3  usage or file/format error
 *
 * Examples:
 *   cspdiff results/baseline/list-context.json /tmp/new.json
 *   cspdiff old.csv new.csv --timing-tol 0.10
 *   cspdiff a.json b.json --float-tol 1e-6 --report report.txt
 */

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "cli.h"
#include "diff/csp_diff.h"

namespace {

void
usage()
{
    std::cout <<
        "usage: cspdiff A B [options]\n"
        "  A, B                 run artefacts: stats JSON, sweep or\n"
        "                       interval CSV, or bench scorecard JSON\n"
        "  --timing-tol F       relative band for timing/throughput\n"
        "                       stats (default 0.05 = 5%)\n"
        "  --float-tol F        relative tolerance for non-integer\n"
        "                       correctness stats (default 0 =\n"
        "                       bit-identical; pass 1e-6 when A and B\n"
        "                       come from different compilers)\n"
        "  --lax-timing         report timing excursions but never\n"
        "                       fail on them (cross-machine diffs)\n"
        "  --require-same-input fail when config/trace digests or the\n"
        "                       seed differ between the manifests\n"
        "  --max-rows N         findings shown in the report "
        "(default 40)\n"
        "  --report FILE        also write the report to FILE\n"
        "                       (parent directories are created)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path_a;
    std::string path_b;
    std::string report_path;
    std::size_t max_rows = 40;
    csp::diff::DiffOptions options;

    const auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "cspdiff: missing value for " << argv[i]
                      << "\n";
            std::exit(3);
        }
        return argv[++i];
    };
    const auto need_number = [&](int &i, auto &out) {
        const char *flag = argv[i];
        csp::tools::requireUnsigned("cspdiff", flag, need_value(i), out);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--timing-tol") {
            need_number(i, options.timing_tolerance);
        } else if (arg == "--float-tol") {
            need_number(i, options.float_tolerance);
        } else if (arg == "--lax-timing") {
            options.fail_on_timing = false;
        } else if (arg == "--require-same-input") {
            options.require_same_input = true;
        } else if (arg == "--max-rows") {
            need_number(i, max_rows);
        } else if (arg == "--report") {
            report_path = need_value(i);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "cspdiff: unknown option " << arg
                      << " (try --help)\n";
            return 3;
        } else if (path_a.empty()) {
            path_a = arg;
        } else if (path_b.empty()) {
            path_b = arg;
        } else {
            std::cerr << "cspdiff: too many positional arguments\n";
            return 3;
        }
    }
    if (path_a.empty() || path_b.empty()) {
        usage();
        return 3;
    }

    csp::diff::FlatDoc doc_a;
    csp::diff::FlatDoc doc_b;
    for (const auto &[path, doc] :
         {std::pair{&path_a, &doc_a}, std::pair{&path_b, &doc_b}}) {
        std::string text;
        std::string error;
        if (!csp::readFileToString(*path, text)) {
            std::cerr << "cspdiff: cannot read " << *path << "\n";
            return 3;
        }
        if (!csp::diff::parseFlat(text, *doc, &error)) {
            std::cerr << "cspdiff: " << *path << ": " << error << "\n";
            return 3;
        }
    }

    const csp::diff::DiffResult result =
        csp::diff::diffDocs(doc_a, doc_b, options);
    std::ostringstream report;
    report << "A: " << path_a << "\nB: " << path_b << "\n";
    result.writeReport(report, max_rows);
    std::cout << report.str();

    csp::tools::writeReport("cspdiff", report_path, report.str());
    return result.exitCode();
}
