/**
 * @file
 * csptop — watch or post-mortem a sweep through its csp-events-v1
 * journal (cspsim --events-out). Default mode prints one status
 * snapshot (per-worker current cell, progress, ETA, cache hit rate);
 * --follow re-reads the journal on an interval and redraws until
 * sweep_end; --summary renders the post-hoc report (exact per-cell
 * percentiles, warm-path read/parse attribution, stragglers,
 * per-worker utilisation).
 *
 * Every timestamp in the output comes from the journal bytes, never
 * from the clock, so for a finished journal csptop is deterministic —
 * which is what lets tests golden the summary.
 *
 * Reading a journal checks it against the csp-events-v1 rules
 * (closed event vocabulary, one sweep per journal, event ordering, cell
 * pairing, and the sweep_end and cache_trim roll-ups against the events
 * they count); a journal that breaks one is refused, naming the rule
 * and the line.
 *
 * Exit codes:
 *   0  report rendered (follow mode: sweep_end observed)
 *   1  --summary rendered, but the journal has no sweep_end
 *      (incomplete)
 *   3  usage or file/format error, or a journal that breaks a rule
 *
 * Examples:
 *   csptop results/sweep.events.jsonl
 *   csptop results/sweep.events.jsonl --follow
 *   csptop results/sweep.events.jsonl --summary --stragglers 16
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "cli.h"
#include "diff/sweep_report.h"

namespace {

void
usage()
{
    std::cout <<
        "usage: csptop JOURNAL [options]\n"
        "  JOURNAL          csp-events-v1 JSONL file from\n"
        "                   cspsim --events-out\n"
        "  --summary        post-hoc report: percentiles, warm-path\n"
        "                   attribution, stragglers, workers\n"
        "  --follow         re-read and redraw the status snapshot\n"
        "                   until the journal has a sweep_end\n"
        "  --interval-ms N  follow-mode poll interval (default 500)\n"
        "  --stragglers N   straggler rows in --summary (default 8)\n"
        "  --report FILE    also write the output to FILE (parent\n"
        "                   directories are created)\n";
}

/** Parse the journal at @p path; tolerate a torn final line in follow
 *  mode by retrying without it (the writer appends whole lines
 *  atomically, but a reader can still race the kernel buffer). */
bool
loadJournal(const std::string &path, bool tolerate_tail,
            csp::diff::SweepJournal &out, std::string &error)
{
    std::string text;
    if (!csp::readFileToString(path, text)) {
        error = "cannot read " + path;
        return false;
    }
    if (csp::diff::parseJournal(text, out, &error))
        return true;
    if (!tolerate_tail)
        return false;
    const std::size_t cut = text.find_last_of('\n');
    if (cut == std::string::npos)
        return false;
    text.resize(cut + 1);
    return csp::diff::parseJournal(text, out, &error);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string journal_path;
    std::string report_path;
    bool summary = false;
    bool follow = false;
    unsigned interval_ms = 500;
    csp::diff::SweepReportOptions options;

    const auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "csptop: missing value for " << argv[i]
                      << "\n";
            std::exit(3);
        }
        return argv[++i];
    };
    const auto need_number = [&](int &i, auto &out) {
        const char *flag = argv[i];
        csp::tools::requireUnsigned("csptop", flag, need_value(i), out);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--summary") {
            summary = true;
        } else if (arg == "--follow") {
            follow = true;
        } else if (arg == "--interval-ms") {
            need_number(i, interval_ms);
        } else if (arg == "--stragglers") {
            need_number(i, options.max_stragglers);
        } else if (arg == "--report") {
            report_path = need_value(i);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "csptop: unknown option " << arg
                      << " (try --help)\n";
            return 3;
        } else if (journal_path.empty()) {
            journal_path = arg;
        } else {
            std::cerr << "csptop: too many positional arguments\n";
            return 3;
        }
    }
    if (journal_path.empty()) {
        usage();
        return 3;
    }
    if (summary && follow) {
        std::cerr << "csptop: --summary and --follow are exclusive\n";
        return 3;
    }

    if (follow) {
        for (;;) {
            csp::diff::SweepJournal journal;
            std::string error;
            if (!loadJournal(journal_path, /*tolerate_tail=*/true,
                             journal, error)) {
                std::cerr << "csptop: " << error << "\n";
                return 3;
            }
            std::ostringstream status;
            if (!csp::diff::renderSweepStatus(journal, status,
                                              &error)) {
                // The writer may not have flushed sweep_start yet;
                // keep polling rather than failing a race.
                std::cout << "csptop: waiting for sweep_start ("
                          << error << ")\n";
            } else {
                std::cout << status.str();
            }
            if (journal.last("sweep_end") != nullptr)
                return 0;
            std::cout.flush();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
            std::cout << "\n";
        }
    }

    csp::diff::SweepJournal journal;
    std::string error;
    if (!loadJournal(journal_path, /*tolerate_tail=*/false, journal,
                     error)) {
        std::cerr << "csptop: " << error << "\n";
        return 3;
    }
    std::ostringstream report;
    const bool ok =
        summary ? csp::diff::renderSweepSummary(journal, report,
                                                &error, options)
                : csp::diff::renderSweepStatus(journal, report,
                                               &error);
    if (!ok) {
        std::cerr << "csptop: " << journal_path << ": " << error
                  << "\n";
        return 3;
    }
    std::cout << report.str();

    csp::tools::writeReport("csptop", report_path, report.str());

    // A summary vouches for a finished sweep.
    if (summary && journal.last("sweep_end") == nullptr) {
        std::cerr << "csptop: " << journal_path
                  << ": no sweep_end (sweep incomplete)\n";
        return 1;
    }
    return 0;
}
