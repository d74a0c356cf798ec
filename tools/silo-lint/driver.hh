/**
 * @file
 * silo-lint driver: file collection, suppression handling, output.
 *
 * The driver walks the scanned tree (src/, bench/ and tests/ under
 * the root by default, or an explicit file list), lexes every C++
 * source, runs the R1–R10 and R14 matchers (rules.hh, protocol.hh;
 * R11–R13 are retired codes that are never reused), applies the
 * suppression grammar and serializes the result as a human report,
 * the `silo-lint-v1` JSON document, or SARIF 2.1.0.
 *
 * Suppression grammar (DESIGN.md §4f):
 *
 *     // silo-lint: allow(<rules>) <reason>            findings on the
 *                                                      same or next line
 *     // silo-lint: allow-next-line(<rules>) <reason>  next line only
 *     // silo-lint: allowfile(<rules>) <reason>        whole file
 *
 * `<rules>` is a comma-separated list of codes ("R1") or slugs
 * ("nondet-iteration"); the reason is mandatory and shared by the
 * listed rules. Suppressed findings stay in the report (marked and
 * counted); a listed rule that matches nothing is itself a finding
 * (S0), so stale allowances cannot accumulate, and the directive
 * corpus is linted by R10 (duplicates, allowfile placement).
 */

#ifndef SILO_LINT_DRIVER_HH
#define SILO_LINT_DRIVER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "silo-lint/rules.hh"

namespace silo::lint
{

struct Options
{
    /** Scan root; findings are reported root-relative. */
    std::string root = ".";
    /**
     * Explicit files to scan (root-relative). Empty scans the
     * default directories (src/, bench/, tests/; the whole root when
     * none of those exists, which is what the fixture tests use).
     * Directories named "fixtures" are always skipped: they hold
     * deliberate rule violations for silo-lint's own tests.
     */
    std::vector<std::string> files;
    /** Extra documentation files for R3 (root-relative). */
    std::vector<std::string> docs;
    /**
     * Include root README.md / DESIGN.md / EXPERIMENTS.md in the R3
     * docs set.
     */
    bool defaultDocs = true;
    /**
     * Incremental mode (--changed): the full corpus is still scanned
     * — the corpus rules R3/R6/R14 need it — but only findings in
     * changedFiles (root-relative) are reported and counted.
     */
    bool changedOnly = false;
    std::vector<std::string> changedFiles;
};

struct Result
{
    /** All findings, sorted (file, line, code), suppressed included. */
    std::vector<Finding> findings;
    std::size_t filesScanned = 0;
    std::size_t errors = 0;       //!< unsuppressed findings
    std::size_t suppressed = 0;   //!< findings silenced with a reason
};

/** Run every rule over the tree described by @p opts. */
Result runLint(const Options &opts);

/**
 * Parse `git diff --name-status -M` output into the root-relative
 * paths that can currently carry findings: modified/added/type-changed
 * paths verbatim, renames and copies as their *new* path, deletions
 * dropped (a deleted file has no lines to report against). Bare
 * status-less lines pass through, so `--name-only` input degrades
 * gracefully.
 */
std::vector<std::string> parseNameStatus(const std::string &text);

/** Serialize @p result as the silo-lint-v1 JSON document. */
std::string toJson(const Result &result);

/**
 * Serialize @p result as a SARIF 2.1.0 document (one run, the full
 * rule catalogue plus S0, suppressed findings carried as inSource
 * suppressions with their reason as justification).
 */
std::string toSarif(const Result &result);

/**
 * Human-readable report: one line per unsuppressed finding (plus
 * suppressed ones when @p verbose) and a summary line.
 */
std::string toHuman(const Result &result, bool verbose = false);

} // namespace silo::lint

#endif // SILO_LINT_DRIVER_HH
