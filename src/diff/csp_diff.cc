#include "diff/csp_diff.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

namespace csp::diff {

namespace {

// ---------------------------------------------------------------------
// JSON flattening: a minimal recursive-descent parser producing dotted
// names. No dependency; handles the repo's own emitters plus standard
// escapes.
// ---------------------------------------------------------------------
class JsonParser
{
  public:
    JsonParser(const std::string &text, FlatDoc &out)
        : p_(text.data()), end_(text.data() + text.size()), out_(out)
    {}

    bool
    parse(std::string *error)
    {
        skipWs();
        if (!parseValue("")) {
            if (error != nullptr)
                *error = error_;
            return false;
        }
        skipWs();
        if (p_ != end_) {
            if (error != nullptr)
                *error = "trailing characters after JSON value";
            return false;
        }
        return true;
    }

  private:
    void
    skipWs()
    {
        while (p_ != end_ &&
               std::isspace(static_cast<unsigned char>(*p_)))
            ++p_;
    }

    bool
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what;
        return false;
    }

    static std::string
    join(const std::string &prefix, const std::string &key)
    {
        return prefix.empty() ? key : prefix + "." + key;
    }

    bool
    parseString(std::string &out)
    {
        if (p_ == end_ || *p_ != '"')
            return fail("expected string");
        ++p_;
        out.clear();
        while (p_ != end_ && *p_ != '"') {
            char ch = *p_++;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (p_ == end_)
                return fail("dangling escape");
            const char esc = *p_++;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (end_ - p_ < 4)
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char hex = *p_++;
                    code <<= 4;
                    if (hex >= '0' && hex <= '9')
                        code |= static_cast<unsigned>(hex - '0');
                    else if (hex >= 'a' && hex <= 'f')
                        code |= static_cast<unsigned>(hex - 'a' + 10);
                    else if (hex >= 'A' && hex <= 'F')
                        code |= static_cast<unsigned>(hex - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // Stats names are ASCII; anything wider degrades to
                // '?' rather than growing a UTF-8 encoder here.
                out += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default: return fail("unknown escape");
            }
        }
        if (p_ == end_)
            return fail("unterminated string");
        ++p_; // closing quote
        return true;
    }

    bool
    parseValue(const std::string &prefix)
    {
        skipWs();
        if (p_ == end_)
            return fail("unexpected end of input");
        const char ch = *p_;
        if (ch == '{')
            return parseObject(prefix);
        if (ch == '[')
            return parseArray(prefix);
        if (ch == '"') {
            FlatValue value;
            if (!parseString(value.text))
                return false;
            out_.add(prefix, std::move(value));
            return true;
        }
        if (ch == 't' || ch == 'f' || ch == 'n')
            return parseWord(prefix);
        return parseNumber(prefix);
    }

    bool
    parseObject(const std::string &prefix)
    {
        ++p_; // '{'
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':')
                return fail("expected ':' in object");
            ++p_;
            if (!parseValue(join(prefix, key)))
                return false;
            skipWs();
            if (p_ == end_)
                return fail("unterminated object");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(const std::string &prefix)
    {
        ++p_; // '['
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        std::size_t index = 0;
        while (true) {
            if (!parseValue(join(prefix, std::to_string(index++))))
                return false;
            skipWs();
            if (p_ == end_)
                return fail("unterminated array");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseWord(const std::string &prefix)
    {
        for (const char *word : {"true", "false", "null"}) {
            const std::size_t n = std::strlen(word);
            if (static_cast<std::size_t>(end_ - p_) >= n &&
                std::equal(word, word + n, p_)) {
                FlatValue value;
                value.text = word;
                p_ += n;
                out_.add(prefix, std::move(value));
                return true;
            }
        }
        return fail("unknown literal");
    }

    bool
    parseNumber(const std::string &prefix)
    {
        char *after = nullptr;
        const double number = std::strtod(p_, &after);
        if (after == p_)
            return fail("expected value");
        FlatValue value;
        value.is_number = true;
        value.number = number;
        value.text.assign(p_, static_cast<std::size_t>(after - p_));
        p_ = after;
        out_.add(prefix, std::move(value));
        return true;
    }

    const char *p_;
    const char *end_;
    FlatDoc &out_;
    std::string error_;
};

std::string
trimmed(const std::string &text)
{
    std::size_t b = 0;
    std::size_t e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b &&
           std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return text.substr(b, e - b);
}

FlatValue
cellValue(const std::string &cell)
{
    FlatValue value;
    value.text = cell;
    if (!cell.empty()) {
        char *after = nullptr;
        const double number = std::strtod(cell.c_str(), &after);
        if (after == cell.c_str() + cell.size()) {
            value.is_number = true;
            value.number = number;
        }
    }
    return value;
}

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream in(line);
    while (std::getline(in, cell, ','))
        cells.push_back(trimmed(cell));
    if (!line.empty() && line.back() == ',')
        cells.emplace_back();
    return cells;
}

bool
segmentEndsWith(const std::string &segment, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return segment.size() >= n &&
           segment.compare(segment.size() - n, n, suffix) == 0;
}

} // namespace

const FlatValue *
FlatDoc::find(const std::string &name) const
{
    for (const auto &[entry_name, value] : entries) {
        if (entry_name == name)
            return &value;
    }
    return nullptr;
}

void
FlatDoc::add(std::string name, FlatValue value)
{
    entries.emplace_back(std::move(name), std::move(value));
}

double
num(const FlatDoc &doc, const std::string &name, double fallback)
{
    const FlatValue *value = doc.find(name);
    return value != nullptr && value->is_number ? value->number
                                                : fallback;
}

std::string
text(const FlatDoc &doc, const std::string &name,
     const std::string &fallback)
{
    const FlatValue *value = doc.find(name);
    return value != nullptr ? value->text : fallback;
}

std::string
fmt(double value, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

std::string
fmtCount(double value)
{
    std::ostringstream out;
    out << static_cast<long long>(value);
    return out.str();
}

bool
parseJsonFlat(const std::string &text, FlatDoc &out,
              std::string *error)
{
    return JsonParser(text, out).parse(error);
}

DocRules::DocRules(const FlatDoc &doc)
{
    for (const auto &[name, value] : doc.entries) {
        index_.emplace(name, &value);
        for (std::size_t dot = name.find('.'); dot != std::string::npos;
             dot = name.find('.', dot + 1))
            index_.emplace(std::string_view(name).substr(0, dot), nullptr);
    }
}

std::size_t
DocRules::length(const std::string &prefix) const
{
    std::size_t n = 0;
    while (index_.count(prefix + '.' + std::to_string(n)) != 0)
        ++n;
    return n;
}

const FlatValue *
DocRules::find(const std::string &key) const
{
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : it->second;
}

double
DocRules::number(const std::string &key)
{
    const FlatValue *value = find(key);
    if (!check(value != nullptr && value->is_number &&
                   std::isfinite(value->number),
               key + " missing or non-numeric"))
        return 0.0;
    return value->number;
}

std::string
DocRules::text(const std::string &key)
{
    const FlatValue *value = find(key);
    if (!check(value != nullptr && !value->is_number,
               key + " missing or not a string"))
        return "";
    return value->text;
}

bool
DocRules::check(bool holds, const std::string &message)
{
    if (!error_.empty())
        return false;
    if (!holds)
        error_ = message;
    return holds;
}

bool
DocRules::result(std::string *error) const
{
    if (!error_.empty() && error != nullptr)
        *error = error_;
    return error_.empty();
}

bool
parseCsvFlat(const std::string &text, FlatDoc &out, std::string *error)
{
    std::vector<std::string> header;
    std::map<std::string, unsigned> row_seen;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // Interval CSVs carry their provenance as one
            // `# manifest <json>` comment line; surface it under the
            // same names a stats JSON would.
            const std::string tag = "# manifest ";
            if (line.compare(0, tag.size(), tag) == 0) {
                FlatDoc manifest;
                if (parseJsonFlat(line.substr(tag.size()), manifest,
                                  error)) {
                    for (auto &[name, value] : manifest.entries) {
                        out.add("manifest." + name,
                                std::move(value));
                    }
                } else {
                    return false;
                }
            }
            continue;
        }
        std::vector<std::string> cells = splitCsvLine(line);
        if (header.empty()) {
            header = std::move(cells);
            continue;
        }
        if (cells.empty())
            continue;
        std::string key = cells[0].empty() ? "row" : cells[0];
        const unsigned seen = ++row_seen[key];
        if (seen > 1) {
            key.push_back('#');
            key += std::to_string(seen);
        }
        for (std::size_t j = 1;
             j < cells.size() && j < header.size(); ++j) {
            out.add(key + "." + header[j], cellValue(cells[j]));
        }
    }
    if (header.empty()) {
        if (error != nullptr)
            *error = "CSV has no header row";
        return false;
    }
    return true;
}

bool
parseFlat(const std::string &text, FlatDoc &out, std::string *error)
{
    for (const char ch : text) {
        if (std::isspace(static_cast<unsigned char>(ch)))
            continue;
        if (ch == '{' || ch == '[')
            return parseJsonFlat(text, out, error);
        return parseCsvFlat(text, out, error);
    }
    if (error != nullptr)
        *error = "empty input";
    return false;
}

StatClass
classify(const std::string &name)
{
    // Split into dotted segments and inspect each: classification must
    // survive arbitrary nesting ("stats.context.prof.x", a sweep row
    // key prefix, ...).
    std::size_t begin = 0;
    bool first = true;
    bool saw_mem = false;
    while (begin <= name.size()) {
        std::size_t dot = name.find('.', begin);
        if (dot == std::string::npos)
            dot = name.size();
        const std::string segment = name.substr(begin, dot - begin);
        if (first && segment == "manifest")
            return StatClass::Provenance;
        // Sweep artefacts' cache accounting block: how cells were
        // obtained (memoized vs simulated), never what they contain —
        // a warm rerun legitimately differs here while every cell
        // matches.
        if (first && segment == "cache")
            return StatClass::Provenance;
        first = false;
        if (segment == "prof")
            return StatClass::Timing;
        // The learning observatory's stats ("learn.*" in a stats dump,
        // "snapshots.*" in a learn.json) exist only when the observer
        // was attached: presence on one side is informational, but any
        // value drift is a determinism break.
        if (segment == "learn" || segment == "snapshots")
            return StatClass::Learning;
        // The memory observatory's stats live under "mem." beside the
        // hierarchy's always-present correctness counters (mem.l1.misses
        // and friends), so "mem" alone cannot classify: it takes a
        // "mem" segment followed by one of the observatory subtree
        // names. Same contract as Learning — one-sided presence is a
        // note, both-present drift is a determinism break.
        if (segment == "mem")
            saw_mem = true;
        else if (saw_mem &&
                 (segment == "class" || segment == "classes" ||
                  segment == "reuse" || segment == "shadow" ||
                  segment == "pollution" || segment == "timeline" ||
                  segment == "sets")) {
            return StatClass::Memory;
        }
        // Wall-clock / throughput leaves. Suffix matching is exact on
        // purpose: "instructions" must never match "ns".
        if (segment == "ns" || segmentEndsWith(segment, "_ns") ||
            segment == "seconds" ||
            segmentEndsWith(segment, "_seconds") ||
            segmentEndsWith(segment, "_per_sec") ||
            segment.find("ns_per") != std::string::npos ||
            segmentEndsWith(segment, "_disabled_rate") ||
            segmentEndsWith(segment, "_recorder_rate") ||
            segmentEndsWith(segment, "enabled_rate") ||
            segmentEndsWith(segment, "_decode_rate") ||
            segmentEndsWith(segment, "speedup_x") ||
            segmentEndsWith(segment, "_rss_mb") ||
            segment == "wall") {
            return StatClass::Timing;
        }
        begin = dot + 1;
    }
    return StatClass::Correctness;
}

namespace {

bool
isIntegral(const FlatValue &value)
{
    return value.is_number &&
           value.text.find_first_of(".eE") == std::string::npos;
}

double
relDelta(double a, double b)
{
    if (a == b)
        return 0.0;
    const double mag = std::max(std::fabs(a), std::fabs(b));
    return mag == 0.0 ? 0.0 : std::fabs(a - b) / mag;
}

/** The manifest fields whose mismatch means the two runs were not the
 *  same experiment. */
bool
isInputIdentity(const std::string &name)
{
    return segmentEndsWith(name, "config_digest") ||
           segmentEndsWith(name, "trace_digest") ||
           segmentEndsWith(name, ".seed");
}

int
classRank(StatClass cls)
{
    switch (cls) {
      case StatClass::Correctness: return 0;
      case StatClass::Learning: return 1;
      case StatClass::Memory: return 2;
      case StatClass::Timing: return 3;
      case StatClass::Provenance: return 4;
    }
    return 5;
}

} // namespace

DiffResult
diffDocs(const FlatDoc &a, const FlatDoc &b, const DiffOptions &options)
{
    DiffResult result;

    for (const auto &[name, va] : a.entries) {
        const FlatValue *vb = b.find(name);
        const StatClass cls = classify(name);
        if (vb == nullptr) {
            ++result.only_a;
            Finding f;
            f.name = name;
            f.cls = cls;
            f.missing_b = true;
            f.a_text = va.text;
            f.rel_delta = 1.0;
            f.failing = cls == StatClass::Correctness;
            if (f.failing)
                result.correctness_drift = true;
            result.findings.push_back(std::move(f));
            continue;
        }
        ++result.compared;

        bool differs = false;
        double rel = 0.0;
        if (va.is_number && vb->is_number) {
            rel = relDelta(va.number, vb->number);
            switch (cls) {
              case StatClass::Correctness:
              case StatClass::Learning:
              case StatClass::Memory:
                differs = isIntegral(va) && isIntegral(*vb)
                              ? va.number != vb->number
                              : rel > options.float_tolerance;
                break;
              case StatClass::Timing:
              case StatClass::Provenance:
                differs = rel != 0.0;
                break;
            }
        } else {
            differs = va.text != vb->text;
            rel = differs ? 1.0 : 0.0;
        }
        if (!differs)
            continue;

        Finding f;
        f.name = name;
        f.cls = cls;
        f.a_text = va.text;
        f.b_text = vb->text;
        f.rel_delta = rel;
        switch (cls) {
          case StatClass::Correctness:
          case StatClass::Learning:
          case StatClass::Memory:
            f.failing = true;
            result.correctness_drift = true;
            break;
          case StatClass::Timing:
            // Out-of-band deltas are still reported (ranked above the
            // in-band notes) under --lax-timing; they just never fail.
            if (rel > options.timing_tolerance &&
                options.fail_on_timing) {
                result.timing_exceeded = true;
                f.failing = true;
            }
            break;
          case StatClass::Provenance:
            if (isInputIdentity(name)) {
                result.provenance_mismatch = true;
                if (options.require_same_input) {
                    f.failing = true;
                    result.correctness_drift = true;
                }
            }
            break;
        }
        result.findings.push_back(std::move(f));
    }

    for (const auto &[name, vb] : b.entries) {
        if (a.find(name) != nullptr)
            continue;
        ++result.only_b;
        const StatClass cls = classify(name);
        Finding f;
        f.name = name;
        f.cls = cls;
        f.missing_a = true;
        f.b_text = vb.text;
        f.rel_delta = 1.0;
        f.failing = cls == StatClass::Correctness;
        if (f.failing)
            result.correctness_drift = true;
        result.findings.push_back(std::move(f));
    }

    std::stable_sort(result.findings.begin(), result.findings.end(),
                     [](const Finding &x, const Finding &y) {
                         if (x.failing != y.failing)
                             return x.failing;
                         if (x.cls != y.cls)
                             return classRank(x.cls) < classRank(y.cls);
                         return x.rel_delta > y.rel_delta;
                     });
    return result;
}

int
DiffResult::exitCode() const
{
    if (correctness_drift)
        return 1;
    if (timing_exceeded)
        return 2;
    return 0;
}

void
DiffResult::writeReport(std::ostream &out, std::size_t max_rows) const
{
    out << "cspdiff: " << compared << " stats compared, " << only_a
        << " only in A, " << only_b << " only in B\n";
    if (findings.empty()) {
        out << "verdict: identical (exit 0)\n";
        return;
    }
    std::size_t shown = 0;
    for (const Finding &f : findings) {
        if (shown++ == max_rows) {
            out << "  ... " << (findings.size() - max_rows)
                << " more findings suppressed (--max-rows)\n";
            break;
        }
        const char *cls = f.cls == StatClass::Correctness ? "corr"
                          : f.cls == StatClass::Learning  ? "lern"
                          : f.cls == StatClass::Memory    ? "mem "
                          : f.cls == StatClass::Timing    ? "time"
                                                          : "prov";
        out << (f.failing ? "  FAIL " : "  note ") << cls << ' ';
        char delta[32];
        std::snprintf(delta, sizeof(delta), "%+7.2f%%",
                      100.0 * f.rel_delta);
        out << delta << "  " << f.name << "  ";
        if (f.missing_a)
            out << "<absent> -> " << f.b_text;
        else if (f.missing_b)
            out << f.a_text << " -> <absent>";
        else
            out << f.a_text << " -> " << f.b_text;
        out << '\n';
    }
    if (correctness_drift) {
        out << "verdict: CORRECTNESS DRIFT (exit 1)\n";
    } else if (timing_exceeded) {
        out << "verdict: timing outside tolerance band (exit 2)\n";
    } else {
        out << "verdict: within tolerance (exit 0)\n";
    }
}

} // namespace csp::diff
