/**
 * @file
 * The lightweight semantic layer under rules R6 and R8.
 *
 * silo-lint deliberately has no real C++ frontend; this header adds
 * the two narrow views those rules need on top of the raw token
 * stream:
 *
 *  - collectIncludes(): the quoted `#include` directives of a file,
 *    feeding the include-graph / module-DAG rule (R6).
 *  - collectFloatNames(): names declared with type float/double, for
 *    the float-determinism rule (R8).
 *
 * Both are conservative pattern matchers, not parsers: they are
 * documented in DESIGN.md §4g together with their known blind spots,
 * and every rule built on them accepts the standard suppression
 * grammar for the residual false positives.
 */

#ifndef SILO_LINT_PARSE_HH
#define SILO_LINT_PARSE_HH

#include <set>
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

/**
 * Names declared with type `float` or `double` anywhere in @p file
 * (locals, members and parameters alike — like R1, scoping is per
 * file). Used by R8 to spot nondeterministically-ordered accumulation.
 */
std::set<std::string> collectFloatNames(const SourceFile &file);

} // namespace silo::lint

#endif // SILO_LINT_PARSE_HH
