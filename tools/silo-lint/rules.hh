/**
 * @file
 * The silo-lint rule catalogue (R1–R3, R6, R10 and R14; R4, R5, R7,
 * R8, R9 and R11–R13 are retired) and per-rule matchers.
 *
 * Each rule is a pattern matcher over the token stream of one source
 * file (R1/R2) or over the whole scanned corpus plus the docs (R3/R6;
 * R14 lives in protocol.hh). R6 additionally leans on the include
 * collector in parse.hh. Matchers emit Findings; the driver owns
 * suppression handling (`// silo-lint: allow(rule) reason`), the
 * directive-hygiene rule R10, sorting and serialization.
 *
 * DESIGN.md §4f documents what each rule enforces and why, plus the
 * recipe for adding a new rule; §4g covers the semantic layer and the
 * module DAG that R6 enforces.
 */

#ifndef SILO_LINT_RULES_HH
#define SILO_LINT_RULES_HH

#include <string>
#include <vector>

#include "silo-lint/lexer.hh"

namespace silo::lint
{

/** One diagnostic (possibly later marked suppressed by the driver). */
struct Finding
{
    std::string file;     //!< root-relative path
    int line = 0;
    std::string code;     //!< "R1".."R10", or "S0" for meta findings
    std::string rule;     //!< slug, e.g. "nondet-iteration"
    std::string message;
    bool suppressed = false;
    std::string reason;   //!< suppression reason when suppressed
};

struct RuleInfo
{
    const char *code;     //!< "R1"
    const char *slug;     //!< "nondet-iteration"
    const char *summary;  //!< one line for --list-rules
};

/** Every enforced rule, in code order. */
const std::vector<RuleInfo> &ruleCatalogue();

/** Canonical slug for @p id ("R1" or a slug); empty when unknown. */
std::string slugForRule(const std::string &id);

/** One lexed source file handed to the matchers. */
struct SourceFile
{
    std::string path;            //!< root-relative
    std::vector<Token> tokens;   //!< full stream, comments included
    std::vector<Token> code;     //!< comment-free view for matchers
};

/** A documentation or build file scanned by R3, split into lines. */
struct TextFile
{
    std::string path;
    std::vector<std::string> lines;
};

/** R1: no range-for / iterator walk over unordered containers. */
void runNondetIteration(const SourceFile &file,
                        std::vector<Finding> &out);

/** R2: no wall clock, PRNG seeds or raw getenv outside the shims. */
void runAmbientEntropy(const SourceFile &file,
                       std::vector<Finding> &out);

/**
 * R3: every SILO_* env var referenced in code (string literals in the
 * scanned sources — tests included — plus any line of the build
 * files) is documented in the docs set, and every documented one
 * exists in code.
 */
void runEnvDocParity(const std::vector<SourceFile> &files,
                     const std::vector<TextFile> &build_files,
                     const std::vector<TextFile> &docs,
                     std::vector<Finding> &out);

/**
 * R6: quoted includes respect the module DAG (directories under src/
 * are layers; DESIGN.md §4g) and the file-level include graph of the
 * scanned corpus is acyclic.
 */
void runLayering(const std::vector<SourceFile> &files,
                 std::vector<Finding> &out);

} // namespace silo::lint

#endif // SILO_LINT_RULES_HH
