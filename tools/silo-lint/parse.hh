/**
 * @file
 * The lightweight semantic layer under rule R6.
 *
 * silo-lint deliberately has no real C++ frontend; this header adds
 * the one narrow view that rule needs on top of the raw token stream:
 * collectIncludes(), the quoted `#include` directives of a file,
 * feeding the include-graph / module-DAG rule (R6).
 *
 * It is a conservative pattern matcher, not a parser: it is
 * documented in DESIGN.md §4g together with its known blind spots,
 * and R6 accepts the standard suppression grammar for the residual
 * false positives.
 */

#ifndef SILO_LINT_PARSE_HH
#define SILO_LINT_PARSE_HH

#include <string>
#include <vector>

#include "silo-lint/rules.hh"

namespace silo::lint
{

/** One quoted `#include "..."` directive. */
struct IncludeDirective
{
    std::string target;   //!< the quoted path, exactly as written
    int line = 0;
};

/**
 * Every quoted include of @p file, in source order. Angle-bracket
 * (system) includes are not reported: the module DAG only constrains
 * project headers.
 */
std::vector<IncludeDirective> collectIncludes(const SourceFile &file);

} // namespace silo::lint

#endif // SILO_LINT_PARSE_HH
