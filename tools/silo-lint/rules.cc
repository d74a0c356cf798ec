#include "silo-lint/rules.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "silo-lint/parse.hh"

namespace silo::lint
{

namespace
{

/** True for chars valid inside a SILO_* environment-variable name. */
bool
envChar(char c)
{
    return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_';
}

/** Extract every SILO_* variable name embedded in @p text. */
std::vector<std::string>
extractEnvVars(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while ((pos = text.find("SILO_", pos)) != std::string::npos) {
        // Must start a fresh token: "XSILO_Y" is not a reference —
        // except the "-DSILO_X" spelling of CMake cache options.
        bool cmake_define = pos >= 2 && text[pos - 1] == 'D' &&
                            text[pos - 2] == '-';
        if (pos > 0 && !cmake_define &&
            (envChar(text[pos - 1]) ||
             (text[pos - 1] >= 'a' && text[pos - 1] <= 'z'))) {
            pos += 5;
            continue;
        }
        std::size_t end = pos + 5;
        while (end < text.size() && envChar(text[end]))
            ++end;
        if (end > pos + 5)
            out.push_back(text.substr(pos, end - pos));
        pos = end;
    }
    return out;
}

Finding
make(const SourceFile &file, int line, const char *code,
     const char *slug, std::string message)
{
    return Finding{file.path, line, code, slug, std::move(message),
                   false, ""};
}

/** Index of the matching closer for the opener at @p open. */
std::size_t
matchDelim(const std::vector<Token> &toks, std::size_t open,
           const char *opener, const char *closer)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Punct)
            continue;
        if (toks[i].text == opener)
            ++depth;
        else if (toks[i].text == closer && --depth == 0)
            return i;
    }
    return toks.size();
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalogue()
{
    static const std::vector<RuleInfo> rules = {
        {"R1", "nondet-iteration",
         "no range-for/iterator walk over unordered containers in "
         "result-affecting code"},
        {"R2", "ambient-entropy",
         "no wall clock, ambient randomness or raw getenv outside the "
         "harness shims"},
        {"R3", "env-doc-parity",
         "every SILO_* env var referenced in code is documented in "
         "README/DESIGN and vice versa"},
        {"R6", "module-layering",
         "quoted includes follow the module DAG (sim at the bottom, "
         "harness on top) and the include graph is acyclic"},
        {"R10", "suppression-hygiene",
         "suppression directives are deduplicated, correctly scoped "
         "and allowfile() precedes the first code of its file"},
        {"R14", "enum-exhaustiveness",
         "switches over the protocol enums cover every enumerator or "
         "carry a default with a reason comment"},
    };
    return rules;
}

std::string
slugForRule(const std::string &id)
{
    for (const RuleInfo &r : ruleCatalogue()) {
        if (id == r.code || id == r.slug)
            return r.slug;
    }
    return "";
}

// --- R1: nondeterministic iteration --------------------------------

void
runNondetIteration(const SourceFile &file, std::vector<Finding> &out)
{
    const std::vector<Token> &t = file.code;
    std::set<std::string> unordered_names;

    // Pass 1: names declared with an unordered container type
    // (members, locals and parameters alike — scoping is per file,
    // which is as fine-grained as this codebase needs).
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier ||
            (t[i].text != "unordered_map" &&
             t[i].text != "unordered_set" &&
             t[i].text != "unordered_multimap" &&
             t[i].text != "unordered_multiset"))
            continue;
        std::size_t j = i + 1;
        if (j >= t.size() || t[j].text != "<")
            continue;   // e.g. the #include line
        int depth = 0;
        for (; j < t.size(); ++j) {
            if (t[j].kind != TokKind::Punct)
                continue;
            if (t[j].text == "<")
                ++depth;
            else if (t[j].text == ">" && --depth == 0)
                break;
        }
        ++j;
        if (j < t.size() && t[j].text == "::" && j + 1 < t.size() &&
            (t[j + 1].text == "iterator" ||
             t[j + 1].text == "const_iterator")) {
            out.push_back(make(file, t[j + 1].line, "R1",
                               "nondet-iteration",
                               "explicit iterator over " + t[i].text +
                                   " — iteration order is "
                                   "nondeterministic"));
            continue;
        }
        while (j < t.size() &&
               (t[j].text == "&" || t[j].text == "*" ||
                t[j].text == "&&" || t[j].text == "const"))
            ++j;
        if (j < t.size() && t[j].kind == TokKind::Identifier)
            unordered_names.insert(t[j].text);
    }
    if (unordered_names.empty())
        return;

    // Pass 2a: range-for whose range expression names a tracked
    // container.
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier || t[i].text != "for" ||
            t[i + 1].text != "(")
            continue;
        std::size_t close = matchDelim(t, i + 1, "(", ")");
        // The range-for ':' sits at paren depth 1 outside brackets.
        int depth = 0;
        std::size_t colon = 0;
        for (std::size_t j = i + 1; j < close && !colon; ++j) {
            if (t[j].kind != TokKind::Punct)
                continue;
            const std::string &p = t[j].text;
            if (p == "(" || p == "[" || p == "{")
                ++depth;
            else if (p == ")" || p == "]" || p == "}")
                --depth;
            else if (p == ":" && depth == 1)
                colon = j;
        }
        if (!colon)
            continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
            if (t[j].kind == TokKind::Identifier &&
                unordered_names.count(t[j].text)) {
                out.push_back(make(
                    file, t[i].line, "R1", "nondet-iteration",
                    "range-for over unordered container '" +
                        t[j].text +
                        "' — iteration order is nondeterministic"));
                break;
            }
        }
    }

    // Pass 2b: iterator walks spelled via begin()/end().
    // end()/cend()/rend() are order-neutral sentinels (find() != end()
    // is fine); only the begin family starts an ordered walk.
    static const std::set<std::string> iter_fns = {
        "begin", "cbegin", "rbegin"};
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (t[i].kind == TokKind::Identifier &&
            unordered_names.count(t[i].text) && t[i + 1].text == "." &&
            iter_fns.count(t[i + 2].text) && t[i + 3].text == "(") {
            out.push_back(make(
                file, t[i].line, "R1", "nondet-iteration",
                "iterator walk over unordered container '" + t[i].text +
                    "' via ." + t[i + 2].text + "()"));
        }
    }
}

// --- R2: wall clock / ambient entropy ------------------------------

void
runAmbientEntropy(const SourceFile &file, std::vector<Finding> &out)
{
    const std::vector<Token> &t = file.code;
    static const std::map<std::string, const char *> always = {
        {"system_clock", "wall-clock read"},
        {"steady_clock", "wall-clock read"},
        {"high_resolution_clock", "wall-clock read"},
        {"clock_gettime", "wall-clock read"},
        {"gettimeofday", "wall-clock read"},
        {"random_device", "ambient entropy source"},
        {"srand", "ambient PRNG seeding"},
        {"getenv", "raw environment read (use envOr/envStrOr)"},
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier)
            continue;
        auto it = always.find(t[i].text);
        if (it != always.end()) {
            out.push_back(make(file, t[i].line, "R2", "ambient-entropy",
                               std::string(it->second) + ": '" +
                                   t[i].text +
                                   "' outside the harness shims"));
            continue;
        }
        bool called = i + 1 < t.size() && t[i + 1].text == "(";
        if (t[i].text == "rand" && called) {
            out.push_back(make(file, t[i].line, "R2", "ambient-entropy",
                               "ambient PRNG: 'rand()' outside the "
                               "harness shims"));
        }
        if (t[i].text == "time" && called) {
            bool qualified = i > 0 && t[i - 1].text == "::";
            bool null_arg =
                i + 2 < t.size() && (t[i + 2].text == "nullptr" ||
                                     t[i + 2].text == "NULL" ||
                                     t[i + 2].text == "0");
            if (qualified || null_arg) {
                out.push_back(make(file, t[i].line, "R2",
                                   "ambient-entropy",
                                   "wall-clock read: 'time()' outside "
                                   "the harness shims"));
            }
        }
    }
}

// --- R3: env var <-> documentation parity --------------------------

namespace
{

/** First (file, line) reference of each variable. */
using RefMap = std::map<std::string, std::pair<std::string, int>>;

void
note(RefMap &refs, const std::string &var, const std::string &file,
     int line)
{
    auto it = refs.find(var);
    if (it == refs.end()) {
        refs.emplace(var, std::make_pair(file, line));
        return;
    }
    if (std::make_pair(file, line) < it->second)
        it->second = {file, line};
}

/**
 * Inline suppression for text files (docs and build scripts), where
 * the C++ comment grammar does not apply: the marker
 * `silo-lint: allow(env-doc-parity) reason` on the finding's line or
 * the line above. @return true (and fills @p reason) when present.
 */
bool
textSuppressed(const TextFile &f, int line, std::string &reason)
{
    static const std::string marker = "silo-lint: allow(env-doc-parity)";
    for (int l : {line, line - 1}) {
        if (l < 1 || std::size_t(l) > f.lines.size())
            continue;
        std::size_t pos = f.lines[l - 1].find(marker);
        if (pos == std::string::npos)
            continue;
        reason = f.lines[l - 1].substr(pos + marker.size());
        // Trim delimiters a comment closer may leave behind.
        while (!reason.empty() &&
               (reason.front() == ' ' || reason.front() == '\t'))
            reason.erase(reason.begin());
        std::size_t close = reason.find("-->");
        if (close != std::string::npos)
            reason = reason.substr(0, close);
        while (!reason.empty() &&
               (reason.back() == ' ' || reason.back() == '\t'))
            reason.pop_back();
        return true;
    }
    return false;
}

} // namespace

void
runEnvDocParity(const std::vector<SourceFile> &files,
                const std::vector<TextFile> &build_files,
                const std::vector<TextFile> &docs,
                std::vector<Finding> &out)
{
    if (docs.empty())
        return;   // nothing to check parity against

    RefMap code_refs;
    for (const SourceFile &f : files) {
        for (const Token &tok : f.code) {
            if (tok.kind != TokKind::String)
                continue;
            for (const std::string &var : extractEnvVars(tok.text))
                note(code_refs, var, f.path, tok.line);
        }
    }
    // Build-system knobs (option()/CACHE variables) count as code:
    // SILO_SANITIZE and SILO_WERROR are user-facing like env vars.
    // Other SILO_* tokens in build files are internal CMake list
    // variables (SILO_SOURCES, ...), not user-facing knobs — skip them.
    for (const TextFile &f : build_files) {
        for (std::size_t l = 0; l < f.lines.size(); ++l) {
            const std::string &ln = f.lines[l];
            if (ln.find("option(") == std::string::npos &&
                ln.find("CACHE") == std::string::npos)
                continue;
            for (const std::string &var : extractEnvVars(ln))
                note(code_refs, var, f.path, int(l + 1));
        }
    }

    RefMap doc_refs;
    for (const TextFile &f : docs) {
        for (std::size_t l = 0; l < f.lines.size(); ++l) {
            for (const std::string &var : extractEnvVars(f.lines[l]))
                note(doc_refs, var, f.path, int(l + 1));
        }
    }

    std::string doc_names;
    for (const TextFile &f : docs)
        doc_names += (doc_names.empty() ? "" : "/") + f.path;

    for (const auto &[var, site] : code_refs) {
        if (doc_refs.count(var))
            continue;
        Finding f{site.first, site.second, "R3", "env-doc-parity",
                  "env var " + var + " is referenced here but not "
                  "documented in " + doc_names, false, ""};
        // Build-file sites use the text-marker suppression; source
        // files go through the driver's comment-based mechanism.
        for (const TextFile &bf : build_files) {
            std::string reason;
            if (bf.path == site.first &&
                textSuppressed(bf, site.second, reason)) {
                f.suppressed = true;
                f.reason = reason;
            }
        }
        out.push_back(std::move(f));
    }
    for (const auto &[var, site] : doc_refs) {
        if (code_refs.count(var))
            continue;
        Finding f{site.first, site.second, "R3", "env-doc-parity",
                  "env var " + var + " is documented here but never "
                  "referenced in the scanned sources", false, ""};
        for (const TextFile &df : docs) {
            std::string reason;
            if (df.path == site.first &&
                textSuppressed(df, site.second, reason)) {
                f.suppressed = true;
                f.reason = reason;
            }
        }
        out.push_back(std::move(f));
    }
}

// --- R6: module layering / include cycles --------------------------

namespace
{

/**
 * Layer of @p path: the directory directly under src/, "src" for
 * files at the src/ root (umbrella headers), empty — unconstrained —
 * outside src/ (tests, bench, tools and fixtures may include
 * anything).
 */
std::string
moduleOf(const std::string &path)
{
    if (path.rfind("src/", 0) != 0)
        return "";
    std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos)
        return "src";
    return path.substr(4, slash - 4);
}

/**
 * The directed module DAG (DESIGN.md §4g): for each layer, the set of
 * layers it may include. sim is the bottom; the memory system stacks
 * nvm < mc < mem; the scheme layers log < silo sit on the memory
 * system; core drives schemes with workloads; check observes
 * everything below it through sim-level interfaces; harness sits on
 * all of them, and fuzz (the litmus fuzzer, which drives whole sweeps)
 * plus the src/ root umbrella are the top.
 */
const std::map<std::string, std::set<std::string>> &
allowedLayers()
{
    static const std::map<std::string, std::set<std::string>> table = {
        {"sim", {"sim"}},
        {"workload", {"sim", "workload"}},
        {"energy", {"energy", "sim"}},
        {"nvm", {"nvm", "sim"}},
        {"mc", {"mc", "nvm", "sim"}},
        {"mem", {"mc", "mem", "nvm", "sim"}},
        {"log", {"log", "mc", "mem", "nvm", "sim"}},
        {"silo", {"log", "mc", "mem", "nvm", "silo", "sim"}},
        {"core", {"core", "log", "mc", "mem", "nvm", "sim",
                  "workload"}},
        {"check", {"check", "core", "energy", "log", "mc", "mem",
                   "nvm", "silo", "sim", "workload"}},
        {"harness", {"check", "core", "energy", "harness", "log",
                     "mc", "mem", "nvm", "silo", "sim", "src",
                     "workload"}},
        {"fuzz", {"check", "core", "energy", "fuzz", "harness", "log",
                  "mc", "mem", "nvm", "silo", "sim", "src",
                  "workload"}},
        {"src", {"check", "core", "energy", "fuzz", "harness", "log",
                 "mc", "mem", "nvm", "silo", "sim", "src",
                 "workload"}},
    };
    return table;
}

std::string
joinSet(const std::set<std::string> &s)
{
    std::string out;
    for (const std::string &e : s)
        out += (out.empty() ? "" : ", ") + e;
    return out;
}

} // namespace

void
runLayering(const std::vector<SourceFile> &files,
            std::vector<Finding> &out)
{
    std::set<std::string> known;
    for (const SourceFile &f : files)
        known.insert(f.path);

    // Resolve an include the way the build's include dirs do: against
    // src/, the including file's directory, tools/, then the root.
    // Only paths inside the scanned corpus resolve (everything else
    // is a system or third-party header the DAG does not constrain).
    auto resolve = [&](const std::string &from,
                       const std::string &inc) -> std::string {
        if (known.count("src/" + inc))
            return "src/" + inc;
        std::size_t slash = from.find_last_of('/');
        if (slash != std::string::npos) {
            std::string sibling = from.substr(0, slash + 1) + inc;
            if (known.count(sibling))
                return sibling;
        }
        if (known.count("tools/" + inc))
            return "tools/" + inc;
        if (known.count(inc))
            return inc;
        return "";
    };

    struct Edge
    {
        std::string to;
        int line;
    };
    std::map<std::string, std::vector<Edge>> graph;

    for (const SourceFile &f : files) {
        std::string from_mod = moduleOf(f.path);
        auto allowed = allowedLayers().find(from_mod);
        for (const IncludeDirective &inc : collectIncludes(f)) {
            std::string target = resolve(f.path, inc.target);
            if (!target.empty())
                graph[f.path].push_back({target, inc.line});
            std::string to_mod;
            if (!target.empty()) {
                to_mod = moduleOf(target);
            } else {
                // Unresolved (partial corpus, e.g. fixtures): the
                // leading path component still names the layer.
                std::size_t slash = inc.target.find('/');
                if (slash != std::string::npos &&
                    allowedLayers().count(inc.target.substr(0, slash)))
                    to_mod = inc.target.substr(0, slash);
            }
            if (from_mod.empty() || to_mod.empty() ||
                allowed == allowedLayers().end())
                continue;   // unconstrained or unknown (new) layer
            if (!allowed->second.count(to_mod)) {
                out.push_back(make(
                    f, inc.line, "R6", "module-layering",
                    "'src/" + from_mod + "' may not include \"" +
                        inc.target + "\" — the module DAG "
                        "(DESIGN.md §4g) allows " + from_mod +
                        " -> {" + joinSet(allowed->second) + "}"));
            }
        }
    }

    // File-level include cycles. Include guards hide them from the
    // compiler and the layer table misses same-module ones; one
    // finding per distinct cycle, at the edge that closes it.
    std::set<std::string> done;
    std::set<std::string> on_stack;
    std::set<std::string> reported;
    std::vector<std::string> stack;
    std::function<void(const std::string &)> dfs =
        [&](const std::string &node) {
            stack.push_back(node);
            on_stack.insert(node);
            for (const Edge &e : graph[node]) {
                if (on_stack.count(e.to)) {
                    auto it = std::find(stack.begin(), stack.end(),
                                        e.to);
                    std::set<std::string> key_set(it, stack.end());
                    if (reported.insert(joinSet(key_set)).second) {
                        std::string path;
                        for (auto p = it; p != stack.end(); ++p)
                            path += *p + " -> ";
                        path += e.to;
                        out.push_back({node, e.line, "R6",
                                       "module-layering",
                                       "include cycle: " + path,
                                       false, ""});
                    }
                    continue;
                }
                if (!done.count(e.to))
                    dfs(e.to);
            }
            on_stack.erase(node);
            stack.pop_back();
            done.insert(node);
        };
    for (const SourceFile &f : files)
        if (!done.count(f.path))
            dfs(f.path);
}

} // namespace silo::lint
