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

} // namespace silo::lint
