#include "silo-lint/driver.hh"

#include "silo-lint/protocol.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace silo::lint
{

namespace fs = std::filesystem;

namespace
{

/** Scope of one suppression directive. */
enum class DirScope
{
    Line,       //!< allow(): the directive's own or the next line
    NextLine,   //!< allow-next-line(): the next line only
    File,       //!< allowfile(): the whole file
};

/** One rule named in a directive's (possibly multi-rule) allow list. */
struct RuleRef
{
    std::string rule;     //!< canonical slug; empty when unknown
    std::string rawRule;  //!< as written (for diagnostics)
    bool used = false;
};

/** One parsed `silo-lint: allow*(...)` directive. */
struct Directive
{
    std::string file;
    int line = 0;
    DirScope scope = DirScope::Line;
    std::vector<RuleRef> rules;
    std::string reason;
    bool malformed = false;
    std::string problem;
};

std::string
trimmed(std::string s)
{
    auto ws = [](char c) {
        return c == ' ' || c == '\t' || c == '\n' || c == '\r';
    };
    while (!s.empty() && ws(s.front()))
        s.erase(s.begin());
    while (!s.empty() && ws(s.back()))
        s.pop_back();
    return s;
}

std::string
readFile(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(std::move(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(std::move(cur));
    return lines;
}

/** Parse every directive out of one file's comment tokens. */
void
parseDirectives(const SourceFile &file, std::vector<Directive> &out)
{
    static const std::string marker = "silo-lint:";
    for (const Token &tok : file.tokens) {
        if (tok.kind != TokKind::Comment)
            continue;
        std::size_t pos = tok.text.find(marker);
        if (pos == std::string::npos)
            continue;
        Directive d;
        d.file = file.path;
        d.line = tok.line;
        std::string rest = trimmed(tok.text.substr(pos + marker.size()));
        if (rest.rfind("allowfile(", 0) == 0)
            d.scope = DirScope::File;
        else if (rest.rfind("allow-next-line(", 0) == 0)
            d.scope = DirScope::NextLine;
        else if (rest.rfind("allow(", 0) == 0)
            d.scope = DirScope::Line;
        else {
            d.malformed = true;
            d.problem = "expected allow(<rules>), "
                        "allow-next-line(<rules>) or "
                        "allowfile(<rules>)";
            out.push_back(std::move(d));
            continue;
        }
        std::size_t open = rest.find('(');
        std::size_t close = rest.find(')', open);
        if (close == std::string::npos) {
            d.malformed = true;
            d.problem = "unterminated rule list";
            out.push_back(std::move(d));
            continue;
        }
        // Comma-separated rule list; every entry must resolve.
        std::string list = rest.substr(open + 1, close - open - 1);
        std::size_t start = 0;
        while (start <= list.size()) {
            std::size_t comma = list.find(',', start);
            std::size_t len = comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start;
            RuleRef r;
            r.rawRule = trimmed(list.substr(start, len));
            r.rule = slugForRule(r.rawRule);
            if (r.rule.empty() && !d.malformed) {
                d.malformed = true;
                d.problem = r.rawRule.empty()
                                ? "empty rule in allow list"
                                : "unknown rule '" + r.rawRule + "'";
            }
            d.rules.push_back(std::move(r));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        d.reason = trimmed(rest.substr(close + 1));
        // Multi-line block comments: the reason is the first line.
        std::size_t nl = d.reason.find('\n');
        if (nl != std::string::npos)
            d.reason = trimmed(d.reason.substr(0, nl));
        if (!d.malformed && d.reason.empty()) {
            d.malformed = true;
            d.problem = "suppression of " +
                        (d.rules.size() == 1 ? d.rules[0].rawRule
                                             : "a rule list") +
                        " must carry a reason";
        }
        out.push_back(std::move(d));
    }
}

/**
 * R10: the directive corpus itself is linted — duplicated grants and
 * allowfile() directives buried below code are findings.
 */
void
runSuppressionHygiene(const std::vector<SourceFile> &files,
                      std::vector<Directive> &directives,
                      std::vector<Finding> &findings)
{
    // (a) allowfile() must precede the file's first code token, so a
    // whole-file allowance is visible at the top of the file.
    std::map<std::string, int> first_code;
    for (const SourceFile &f : files)
        if (!f.code.empty())
            first_code[f.path] = f.code.front().line;
    for (const Directive &d : directives) {
        if (d.malformed || d.scope != DirScope::File)
            continue;
        auto it = first_code.find(d.file);
        if (it != first_code.end() && d.line > it->second) {
            findings.push_back(
                {d.file, d.line, "R10", "suppression-hygiene",
                 "allowfile() must appear before the first code of "
                 "the file (line " + std::to_string(it->second) +
                     ") so whole-file allowances are visible up front",
                 false, ""});
        }
    }

    // (b) duplicate grants: two directives in one file granting the
    // same rule over overlapping scope. allowfile() vs a line-level
    // allow is deliberately not flagged (the narrow one documents a
    // specific site).
    auto covered = [](const Directive &d) {
        std::vector<int> lines{d.line + 1};
        if (d.scope == DirScope::Line)
            lines.push_back(d.line);
        return lines;
    };
    for (std::size_t a = 0; a < directives.size(); ++a) {
        for (std::size_t b = a + 1; b < directives.size(); ++b) {
            const Directive &x = directives[a];
            const Directive &y = directives[b];
            if (x.malformed || y.malformed || x.file != y.file)
                continue;
            bool x_file = x.scope == DirScope::File;
            bool y_file = y.scope == DirScope::File;
            bool overlap = x_file && y_file;
            if (!x_file && !y_file) {
                for (int lx : covered(x))
                    for (int ly : covered(y))
                        if (lx == ly)
                            overlap = true;
            }
            if (!overlap)
                continue;
            for (const RuleRef &rx : x.rules) {
                for (const RuleRef &ry : y.rules) {
                    if (rx.rule.empty() || rx.rule != ry.rule)
                        continue;
                    findings.push_back(
                        {y.file, y.line, "R10", "suppression-hygiene",
                         "duplicate suppression of " + ry.rawRule +
                             " — already granted by the directive at "
                             "line " + std::to_string(x.line),
                         false, ""});
                }
            }
        }
    }
}

void
collectSources(const fs::path &root, const Options &opts,
               std::vector<fs::path> &sources)
{
    auto wanted = [](const fs::path &p) {
        std::string ext = p.extension().string();
        return ext == ".cc" || ext == ".hh";
    };
    auto in_fixtures = [](const fs::path &p) {
        for (const auto &part : p)
            if (part == "fixtures")
                return true;
        return false;
    };
    if (!opts.files.empty()) {
        for (const std::string &f : opts.files)
            sources.push_back(root / f);
        return;
    }
    std::vector<fs::path> dirs;
    // tools/litmus is a simulator front end like bench/ and is held
    // to the same rules; silo-lint's own sources are not scanned (the
    // analyzer reads files and environments by trade).
    for (const char *d : {"src", "bench", "tests", "tools/litmus"})
        if (fs::is_directory(root / d))
            dirs.push_back(root / d);
    if (dirs.empty())
        dirs.push_back(root);
    for (const fs::path &dir : dirs) {
        for (const auto &entry :
             fs::recursive_directory_iterator(dir)) {
            if (entry.is_regular_file() && wanted(entry.path()) &&
                !in_fixtures(entry.path()))
                sources.push_back(entry.path());
        }
    }
}

void
collectBuildFiles(const fs::path &root, const Options &opts,
                  std::vector<fs::path> &build_files)
{
    if (!opts.files.empty())
        return;   // explicit-file runs lint just those sources
    if (fs::is_regular_file(root / "CMakeLists.txt"))
        build_files.push_back(root / "CMakeLists.txt");
    for (const char *d : {"src", "bench", "tests", "tools"}) {
        if (!fs::is_directory(root / d))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(root / d)) {
            if (!entry.is_regular_file())
                continue;
            const fs::path &p = entry.path();
            if (p.filename() == "CMakeLists.txt" ||
                p.extension() == ".cmake")
                build_files.push_back(p);
        }
    }
}

} // namespace

Result
runLint(const Options &opts)
{
    fs::path root(opts.root);

    std::vector<fs::path> source_paths;
    collectSources(root, opts, source_paths);
    std::sort(source_paths.begin(), source_paths.end());

    std::vector<SourceFile> files;
    files.reserve(source_paths.size());
    for (const fs::path &p : source_paths) {
        SourceFile f;
        f.path = fs::relative(p, root).generic_string();
        f.tokens = lex(readFile(p));
        for (const Token &tok : f.tokens)
            if (tok.kind != TokKind::Comment)
                f.code.push_back(tok);
        files.push_back(std::move(f));
    }

    std::vector<fs::path> build_paths;
    collectBuildFiles(root, opts, build_paths);
    std::sort(build_paths.begin(), build_paths.end());
    std::vector<TextFile> build_files;
    for (const fs::path &p : build_paths) {
        build_files.push_back({fs::relative(p, root).generic_string(),
                               splitLines(readFile(p))});
    }

    std::vector<std::string> doc_names = opts.docs;
    if (opts.defaultDocs) {
        for (const char *d : {"README.md", "DESIGN.md",
                              "EXPERIMENTS.md"})
            if (fs::is_regular_file(root / d))
                doc_names.push_back(d);
    }
    std::vector<TextFile> docs;
    for (const std::string &d : doc_names)
        docs.push_back({d, splitLines(readFile(root / d))});

    std::vector<Finding> findings;
    std::vector<Directive> directives;
    for (const SourceFile &f : files) {
        runNondetIteration(f, findings);
        runAmbientEntropy(f, findings);
        parseDirectives(f, directives);
    }
    runEnvDocParity(files, build_files, docs, findings);
    runLayering(files, findings);
    runEnumExhaustiveness(files, findings);
    runSuppressionHygiene(files, directives, findings);

    // Apply suppressions: a directive covers findings of its listed
    // rules in its file — its own or the following line for allow(),
    // the following line for allow-next-line(), anywhere for
    // allowfile().
    for (Finding &f : findings) {
        if (f.suppressed)
            continue;   // R3 text-marker suppressions arrive pre-set
        for (Directive &d : directives) {
            if (d.malformed || d.file != f.file)
                continue;
            bool covers =
                d.scope == DirScope::File ||
                (d.scope == DirScope::Line &&
                 (d.line == f.line || d.line == f.line - 1)) ||
                (d.scope == DirScope::NextLine && d.line == f.line - 1);
            if (!covers)
                continue;
            bool matched = false;
            for (RuleRef &r : d.rules) {
                if (r.rule != f.rule)
                    continue;
                f.suppressed = true;
                f.reason = d.reason;
                r.used = true;
                matched = true;
                break;
            }
            if (matched)
                break;
        }
    }

    // Directives are themselves linted: malformed directives and
    // unmatched listed rules are findings, so the suppression surface
    // stays auditable.
    for (const Directive &d : directives) {
        if (d.malformed) {
            findings.push_back({d.file, d.line, "S0", "suppression",
                                "malformed silo-lint directive: " +
                                    d.problem,
                                false, ""});
            continue;
        }
        for (const RuleRef &r : d.rules) {
            if (r.used)
                continue;
            std::string tail =
                d.scope == DirScope::NextLine
                    ? " — nothing on the next line triggers it"
                    : " — nothing on this or the next "
                      "line triggers it";
            findings.push_back({d.file, d.line, "S0", "suppression",
                                "unused suppression for " + r.rawRule +
                                    tail,
                                false, ""});
        }
    }

    // Incremental mode: the corpus rules above saw the whole tree;
    // only findings in the changed set are reported.
    if (opts.changedOnly) {
        std::set<std::string> changed(opts.changedFiles.begin(),
                                      opts.changedFiles.end());
        findings.erase(
            std::remove_if(findings.begin(), findings.end(),
                           [&](const Finding &f) {
                               return !changed.count(f.file);
                           }),
            findings.end());
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.code, a.message) <
                         std::tie(b.file, b.line, b.code, b.message);
              });

    Result result;
    result.findings = std::move(findings);
    result.filesScanned = files.size();
    for (const Finding &f : result.findings) {
        if (f.suppressed)
            ++result.suppressed;
        else
            ++result.errors;
    }
    return result;
}

std::vector<std::string>
parseNameStatus(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        std::vector<std::string> fields;
        std::size_t start = 0;
        for (std::size_t tab = line.find('\t');
             tab != std::string::npos;
             start = tab + 1, tab = line.find('\t', start))
            fields.push_back(line.substr(start, tab - start));
        fields.push_back(line.substr(start));
        if (fields.size() < 2) {
            out.push_back(line);   // bare --name-only style path
            continue;
        }
        // M/A/T<TAB>path, D<TAB>path, Rnnn/Cnnn<TAB>old<TAB>new.
        if (fields[0].empty() || fields[0][0] == 'D')
            continue;
        out.push_back(fields.back());
    }
    return out;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
toJson(const Result &result)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"silo-lint-v1\",\n";
    os << "  \"summary\": {\"files_scanned\": " << result.filesScanned
       << ", \"errors\": " << result.errors
       << ", \"suppressed\": " << result.suppressed << "},\n";
    os << "  \"findings\": [";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding &f = result.findings[i];
        os << (i ? ",\n" : "\n");
        os << "    {\"file\": \"" << jsonEscape(f.file)
           << "\", \"line\": " << f.line << ", \"code\": \"" << f.code
           << "\", \"rule\": \"" << f.rule
           << "\", \"severity\": \"error\", \"suppressed\": "
           << (f.suppressed ? "true" : "false");
        if (f.suppressed)
            os << ", \"reason\": \"" << jsonEscape(f.reason) << "\"";
        os << ", \"message\": \"" << jsonEscape(f.message) << "\"}";
    }
    os << (result.findings.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
    return os.str();
}

std::string
toSarif(const Result &result)
{
    // Rule index: the catalogue in code order, then the S0 meta rule.
    std::map<std::string, std::size_t> rule_index;
    std::ostringstream os;
    os << "{\n"
       << "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
       << "  \"version\": \"2.1.0\",\n"
       << "  \"runs\": [\n"
       << "    {\n"
       << "      \"tool\": {\n"
       << "        \"driver\": {\n"
       << "          \"name\": \"silo-lint\",\n"
       << "          \"rules\": [\n";
    std::size_t n = 0;
    for (const RuleInfo &r : ruleCatalogue()) {
        rule_index[r.code] = n++;
        os << "            {\"id\": \"" << r.code << "\", \"name\": \""
           << r.slug << "\", \"shortDescription\": {\"text\": \""
           << jsonEscape(r.summary) << "\"}},\n";
    }
    rule_index["S0"] = n;
    os << "            {\"id\": \"S0\", \"name\": \"suppression\", "
          "\"shortDescription\": {\"text\": \"the suppression grammar "
          "itself: malformed or unused directives\"}}\n"
       << "          ]\n"
       << "        }\n"
       << "      },\n"
       << "      \"columnKind\": \"utf16CodeUnits\",\n"
       << "      \"originalUriBaseIds\": {\"SRCROOT\": "
          "{\"description\": {\"text\": \"repository root\"}}},\n"
       << "      \"results\": [";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding &f = result.findings[i];
        os << (i ? ",\n" : "\n");
        os << "        {\"ruleId\": \"" << f.code
           << "\", \"ruleIndex\": " << rule_index[f.code]
           << ", \"level\": \"error\", \"message\": {\"text\": \""
           << jsonEscape(f.message) << "\"}, \"locations\": "
           << "[{\"physicalLocation\": {\"artifactLocation\": "
           << "{\"uri\": \"" << jsonEscape(f.file)
           << "\", \"uriBaseId\": \"SRCROOT\"}, \"region\": "
           << "{\"startLine\": " << std::max(f.line, 1) << "}}}]";
        if (f.suppressed) {
            os << ", \"suppressions\": [{\"kind\": \"inSource\", "
               << "\"justification\": \"" << jsonEscape(f.reason)
               << "\"}]";
        }
        os << "}";
    }
    os << (result.findings.empty() ? "]\n" : "\n      ]\n");
    os << "    }\n"
       << "  ]\n"
       << "}\n";
    return os.str();
}

std::string
toHuman(const Result &result, bool verbose)
{
    std::ostringstream os;
    for (const Finding &f : result.findings) {
        if (f.suppressed && !verbose)
            continue;
        os << f.file << ":" << f.line << ": "
           << (f.suppressed ? "allowed" : "error") << " [" << f.code
           << " " << f.rule << "] " << f.message;
        if (f.suppressed)
            os << " (reason: " << f.reason << ")";
        os << "\n";
    }
    os << "silo-lint: " << result.errors << " error(s), "
       << result.suppressed << " suppressed, " << result.filesScanned
       << " file(s) scanned\n";
    return os.str();
}

} // namespace silo::lint
