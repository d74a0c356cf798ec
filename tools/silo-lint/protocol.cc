#include "silo-lint/protocol.hh"

#include <algorithm>
#include <map>
#include <set>

namespace silo::lint
{
namespace
{

constexpr std::size_t npos = std::string::npos;

bool isPunct(const Token &t, const char *s)
{
    return t.kind == TokKind::Punct && t.text == s;
}

bool isIdent(const Token &t, const char *s)
{
    return t.kind == TokKind::Identifier && t.text == s;
}

std::size_t matchFwd(const std::vector<Token> &t, std::size_t i,
                     const char *open, const char *close)
{
    int depth = 0;
    for (std::size_t j = i; j < t.size(); ++j)
    {
        if (isPunct(t[j], open))
            ++depth;
        else if (isPunct(t[j], close))
        {
            if (--depth == 0)
                return j;
        }
    }
    return npos;
}

Finding make(const std::string &file, int line, const char *code,
             const char *rule, std::string msg)
{
    Finding f;
    f.file = file;
    f.line = line;
    f.code = code;
    f.rule = rule;
    f.message = std::move(msg);
    return f;
}

void harvestEnums(const std::vector<SourceFile> &files,
                  std::map<std::string, std::set<std::string>> &enums)
{
    for (const SourceFile &f : files)
    {
        const auto &t = f.code;
        for (std::size_t i = 0; i + 3 < t.size(); ++i)
        {
            if (!isIdent(t[i], "enum"))
                continue;
            std::size_t j = i + 1;
            if (isIdent(t[j], "class") || isIdent(t[j], "struct"))
                ++j;
            if (j >= t.size() || t[j].kind != TokKind::Identifier)
                continue;
            std::string name = t[j].text;
            // Skip the optional `: underlying_type` to the brace.
            std::size_t open = j + 1;
            while (open < t.size() && !isPunct(t[open], "{") &&
                   !isPunct(t[open], ";"))
                ++open;
            if (open >= t.size() || !isPunct(t[open], "{"))
                continue;  // forward declaration
            std::size_t close = matchFwd(t, open, "{", "}");
            if (close == npos)
                continue;
            auto &members = enums[name];
            bool expectName = true;
            int depth = 0;
            for (std::size_t k = open + 1; k < close; ++k)
            {
                if (isPunct(t[k], "(") || isPunct(t[k], "{") ||
                    isPunct(t[k], "["))
                    ++depth;
                else if (isPunct(t[k], ")") || isPunct(t[k], "}") ||
                         isPunct(t[k], "]"))
                    --depth;
                else if (depth == 0 && isPunct(t[k], ","))
                    expectName = true;
                else if (depth == 0 && expectName &&
                         t[k].kind == TokKind::Identifier)
                {
                    members.insert(t[k].text);
                    expectName = false;
                }
            }
        }
    }
}

bool isProtocolEnum(const std::string &name)
{
    return name == "SchemeKind" || name == "MutationKind" ||
           name == "LogDropReason" || name == "ViolationKind";
}

/** Is there a comment on @p line or the line above it? */
bool hasCommentNear(const SourceFile &f, int line)
{
    for (const Token &t : f.tokens)
        if (t.kind == TokKind::Comment &&
            (t.line == line || t.line == line - 1))
            return true;
    return false;
}

} // namespace

void runEnumExhaustiveness(const std::vector<SourceFile> &files,
                           std::vector<Finding> &out)
{
    std::map<std::string, std::set<std::string>> enums;
    harvestEnums(files, enums);

    for (const SourceFile &f : files)
    {
        const auto &t = f.code;
        for (std::size_t i = 0; i + 2 < t.size(); ++i)
        {
            if (!isIdent(t[i], "switch") || !isPunct(t[i + 1], "("))
                continue;
            std::size_t condClose = matchFwd(t, i + 1, "(", ")");
            if (condClose == npos || condClose + 1 >= t.size() ||
                !isPunct(t[condClose + 1], "{"))
                continue;
            std::size_t open = condClose + 1;
            std::size_t close = matchFwd(t, open, "{", "}");
            if (close == npos)
                continue;

            std::string enumName;
            std::set<std::string> covered;
            int defaultLine = 0;
            int depth = 1;
            for (std::size_t k = open + 1; k < close; ++k)
            {
                if (isPunct(t[k], "{"))
                    ++depth;
                else if (isPunct(t[k], "}"))
                    --depth;
                else if (depth == 1 && isIdent(t[k], "case"))
                {
                    // `case Enum::Member:` — enum name is the
                    // identifier before the last `::`.
                    std::vector<std::string> ids;
                    std::size_t m = k + 1;
                    while (m < close && !isPunct(t[m], ":"))
                    {
                        if (t[m].kind == TokKind::Identifier)
                            ids.push_back(t[m].text);
                        ++m;
                    }
                    if (ids.size() >= 2)
                    {
                        if (enumName.empty())
                            enumName = ids[ids.size() - 2];
                        if (enumName == ids[ids.size() - 2])
                            covered.insert(ids.back());
                    }
                    k = m;
                }
                else if (depth == 1 && isIdent(t[k], "default") &&
                         k + 1 < close && isPunct(t[k + 1], ":"))
                    defaultLine = t[k].line;
            }

            if (!isProtocolEnum(enumName))
                continue;
            auto it = enums.find(enumName);
            if (it == enums.end())
                continue;

            if (defaultLine != 0)
            {
                if (!hasCommentNear(f, defaultLine))
                    out.push_back(make(
                        f.path, defaultLine, "R14",
                        "enum-exhaustiveness",
                        "switch over " + enumName +
                            " has a 'default' without a reason "
                            "comment; say why the remaining "
                            "enumerators share one behavior"));
                continue;
            }
            std::vector<std::string> missing;
            for (const std::string &member : it->second)
                if (!covered.count(member))
                    missing.push_back(member);
            if (!missing.empty())
            {
                std::sort(missing.begin(), missing.end());
                std::string list;
                for (const std::string &m : missing)
                    list += (list.empty() ? "" : ", ") + m;
                out.push_back(make(
                    f.path, t[i].line, "R14", "enum-exhaustiveness",
                    "switch over " + enumName +
                        " does not cover: " + list +
                        "; cover every enumerator or add a default "
                        "with a reason comment"));
            }
        }
    }
}

} // namespace silo::lint
