/**
 * @file
 * R14 enum-exhaustiveness: switches over the protocol enums
 * (SchemeKind, MutationKind, LogDropReason, ViolationKind) cover every
 * enumerator or carry a default with a reason comment, so adding a
 * scheme, mutation, drop reason or violation kind cannot silently
 * fall into an old branch. Corpus-wide: enumerators are harvested
 * from every scanned file. DESIGN.md §4k documents the rule.
 */

#ifndef SILO_LINT_PROTOCOL_HH
#define SILO_LINT_PROTOCOL_HH

#include <vector>

#include "silo-lint/rules.hh"

namespace silo::lint
{

/** R14: exhaustiveness of switches over the protocol enums. */
void runEnumExhaustiveness(const std::vector<SourceFile> &files,
                           std::vector<Finding> &out);

} // namespace silo::lint

#endif // SILO_LINT_PROTOCOL_HH
