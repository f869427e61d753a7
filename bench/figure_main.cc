/** @file The main of every figure binary. Built with CSP_FIGURE=<name>
 *  it is `<name> [--jobs N]`, printing that figure to stdout; without,
 *  `figures [--jobs N] OUT_DIR [NAME...]`, writing the named figures
 *  (default: all) from one sweep to OUT_DIR/<name>.txt. `--jobs` 0 (the
 *  default) means CSP_JOBS, else every hardware thread. */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/logging.h"
#include "core/parse.h"
#include "figure.h"

int
main(int argc, char **argv)
{
    using namespace csp;
    sim::SweepOptions options;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            const char *value = i + 1 < argc ? argv[++i] : "";
            if (!parseUnsigned(value, options.jobs))
                fatal("%s wants an unsigned number, got '%s'", arg.c_str(),
                      value);
        } else if (arg.starts_with("-")) {
            fatal("unknown option %s", arg.c_str());
        } else {
            args.push_back(arg);
        }
    }
    const auto print = [](const bench::FigureSpec &spec,
                          const sim::SweepResult &result, std::ostream &out) {
        out << "==============================================\n"
            << spec.title << "\n(" << spec.paper_ref << ")\n"
            << "==============================================\n";
        spec.render(result, out);
    };
    const std::vector<bench::FigureSpec> all = bench::figureSpecs();
    std::vector<bench::FigureSpec> specs;
    const auto select = [&](const std::string &name) {
        const auto it = std::find_if(all.begin(), all.end(), [&](auto &spec) {
            return spec.name == name;
        });
        if (it == all.end())
            fatal("unknown figure '%s'", name.c_str());
        specs.push_back(*it);
    };
#ifdef CSP_FIGURE
    if (!args.empty())
        fatal("usage: %s [--jobs N]", CSP_FIGURE);
    select(CSP_FIGURE);
    print(specs[0], bench::runFigures(specs, options).slices[0], std::cout);
#else
    if (args.empty())
        fatal("usage: figures [--jobs N] OUT_DIR [NAME...]");
    for (std::size_t i = 1; i < args.size(); ++i)
        select(args[i]);
    if (specs.empty())
        specs = all;
    std::filesystem::create_directories(args[0]);
    const bench::FigureRun run = bench::runFigures(specs, options);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string path = args[0] + "/" + specs[i].name + ".txt";
        std::ofstream out(path);
        print(specs[i], run.slices[i], out);
        if (!out.flush())
            fatal("cannot write %s", path.c_str());
    }
#endif
    return 0;
}
