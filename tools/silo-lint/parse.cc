#include "silo-lint/parse.hh"

namespace silo::lint
{

namespace
{

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

} // namespace

std::vector<IncludeDirective>
collectIncludes(const SourceFile &file)
{
    std::vector<IncludeDirective> out;
    const std::vector<Token> &t = file.code;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (isPunct(t[i], "#") && t[i + 1].kind == TokKind::Identifier &&
            t[i + 1].text == "include" &&
            t[i + 2].kind == TokKind::String) {
            out.push_back({t[i + 2].text, t[i + 2].line});
        }
    }
    return out;
}

std::set<std::string>
collectFloatNames(const SourceFile &file)
{
    std::set<std::string> names;
    const std::vector<Token> &t = file.code;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier ||
            (t[i].text != "float" && t[i].text != "double"))
            continue;
        std::size_t j = i + 1;
        while (j < t.size() &&
               (t[j].text == "const" || isPunct(t[j], "&") ||
                isPunct(t[j], "*")))
            ++j;
        if (j + 1 >= t.size() || t[j].kind != TokKind::Identifier)
            continue;   // template argument (`vector<double>`) etc.
        const std::string &next = t[j + 1].text;
        // "(" is excluded on purpose: `double mean()` declares a
        // function, not a float-typed name.
        if (next == "=" || next == "{" || next == ";" || next == "," ||
            next == ")" || next == ":")
            names.insert(t[j].text);
    }
    return names;
}

} // namespace silo::lint
