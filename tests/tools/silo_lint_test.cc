/**
 * @file
 * silo-lint's own tests: rules R1, R2, R3, R6 and R10 each get a
 * positive fixture (violations found, golden silo-lint-v1 JSON
 * byte-matched), a negative fixture (clean code stays clean) and a
 * suppressed fixture (a reasoned allow() turns the error into a
 * counted suppression), R14 gets a positive fixture, plus S0 coverage
 * of the suppression grammar itself (multi-rule lists, CRLF endings,
 * trailing-whitespace reasons, last-line directives), SARIF 2.1.0
 * golden output, the --changed finding filter (including
 * rename/delete name-status parsing), and — the gate that matters
 * day-to-day — a self-run asserting the repository lints clean with
 * zero unsuppressed findings. The retired rules (R4, R5, R7, R8, R9
 * and R11–R13) must stay out of the catalogue.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "silo-lint/driver.hh"

namespace silo::lint
{
namespace
{

const std::string fixtures =
    std::string(SILO_TEST_DIR) + "/tools/fixtures";
const std::string goldens =
    std::string(SILO_TEST_DIR) + "/tools/golden";

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Lint one fixture directory restricted to the named files. */
Result
lintFixture(const std::string &rel_root,
            std::vector<std::string> files)
{
    Options opts;
    opts.root = fixtures + "/" + rel_root;
    opts.files = std::move(files);
    return runLint(opts);
}

/** Compare a fixture result against its checked-in golden JSON. */
void
expectMatchesGolden(const Result &result, const std::string &name)
{
    std::string golden = slurp(goldens + "/" + name + ".json");
    ASSERT_FALSE(golden.empty()) << "missing golden " << name;
    EXPECT_EQ(toJson(result), golden) << "golden " << name
                                      << " out of date";
}

/** Same, for the SARIF 2.1.0 serialization of the result. */
void
expectMatchesSarifGolden(const Result &result, const std::string &name)
{
    std::string golden = slurp(goldens + "/" + name + ".sarif");
    ASSERT_FALSE(golden.empty()) << "missing SARIF golden " << name;
    EXPECT_EQ(toSarif(result), golden) << "SARIF golden " << name
                                       << " out of date";
}

TEST(SiloLintRules, CatalogueCoversR1ToR14)
{
    // R4, R5, R7, R8, R9 and R11–R13 are retired; their codes and
    // slugs stay unassigned.
    ASSERT_EQ(ruleCatalogue().size(), 6u);
    std::vector<std::string> codes;
    for (const RuleInfo &rule : ruleCatalogue())
        codes.push_back(rule.code);
    EXPECT_EQ(codes, (std::vector<std::string>{"R1", "R2", "R3", "R6",
                                               "R10", "R14"}));
    EXPECT_EQ(slugForRule("R1"), "nondet-iteration");
    EXPECT_EQ(slugForRule("nondet-iteration"), "nondet-iteration");
    EXPECT_EQ(slugForRule("R6"), "module-layering");
    EXPECT_EQ(slugForRule("R10"), "suppression-hygiene");
    EXPECT_EQ(slugForRule("suppression-hygiene"),
              "suppression-hygiene");
    EXPECT_EQ(slugForRule("R14"), "enum-exhaustiveness");
    for (const char *retired :
         {"R4", "handler-hygiene", "R5", "stats-names", "R7",
          "callback-lifetime", "R8", "float-determinism", "R9",
          "stats-registration", "R11", "R13", "wal-ordering"})
        EXPECT_EQ(slugForRule(retired), "") << retired;
    EXPECT_EQ(slugForRule("not-a-rule"), "");
}

TEST(SiloLintR1, PositiveFindsRangeForAndIteratorWalk)
{
    Result r = lintFixture("r1", {"positive.cc"});
    EXPECT_EQ(r.errors, 2u);
    EXPECT_EQ(r.suppressed, 0u);
    for (const Finding &f : r.findings)
        EXPECT_EQ(f.rule, "nondet-iteration");
    expectMatchesGolden(r, "r1_positive");
}

TEST(SiloLintR1, NegativeLookupAndSentinelStayClean)
{
    Result r = lintFixture("r1", {"negative.cc"});
    EXPECT_EQ(r.errors, 0u);
    EXPECT_TRUE(r.findings.empty());
}

TEST(SiloLintR1, SuppressedCountsButDoesNotFail)
{
    Result r = lintFixture("r1", {"suppressed.cc"});
    EXPECT_EQ(r.errors, 0u);
    ASSERT_EQ(r.suppressed, 1u);
    EXPECT_TRUE(r.findings[0].suppressed);
    EXPECT_EQ(r.findings[0].reason,
              "order-insensitive count accumulation");
    expectMatchesGolden(r, "r1_suppressed");
}

TEST(SiloLintR2, PositiveFindsWallClockAndRawGetenv)
{
    Result r = lintFixture("r2", {"positive.cc"});
    EXPECT_EQ(r.errors, 2u);
    expectMatchesGolden(r, "r2_positive");
}

TEST(SiloLintR2, NegativeDeterministicCodeStaysClean)
{
    Result r = lintFixture("r2", {"negative.cc"});
    EXPECT_EQ(r.errors, 0u);
    EXPECT_TRUE(r.findings.empty());
}

TEST(SiloLintR2, SuppressedShimIsAllowed)
{
    Result r = lintFixture("r2", {"suppressed.cc"});
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.suppressed, 1u);
}

TEST(SiloLintR3, PositiveFlagsBothDirections)
{
    Result r = lintFixture("r3/positive", {"code.cc"});
    EXPECT_EQ(r.errors, 2u);
    bool undocumented = false, orphan = false;
    for (const Finding &f : r.findings) {
        EXPECT_EQ(f.rule, "env-doc-parity");
        // Match without the SILO_ prefix so these literals don't
        // register as env-var references in our own self-run.
        if (f.message.find("UNDOCUMENTED_KNOB") != std::string::npos)
            undocumented = true;
        if (f.message.find("ORPHAN_KNOB") != std::string::npos)
            orphan = true;
    }
    EXPECT_TRUE(undocumented) << "code->doc direction missing";
    EXPECT_TRUE(orphan) << "doc->code direction missing";
    expectMatchesGolden(r, "r3_positive");
}

TEST(SiloLintR3, NegativeParityStaysClean)
{
    Result r = lintFixture("r3/negative", {"code.cc"});
    EXPECT_EQ(r.errors, 0u);
    EXPECT_TRUE(r.findings.empty());
}

TEST(SiloLintR3, SuppressedOnBothSides)
{
    // Code side via the allow() comment, doc side via the text
    // marker (Markdown has no C++ comment grammar).
    Result r = lintFixture("r3/suppressed", {"code.cc"});
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.suppressed, 2u);
    expectMatchesGolden(r, "r3_suppressed");
}

TEST(SiloLintS0, SuppressionGrammarIsItselfLinted)
{
    Result r = lintFixture("s0", {"positive.cc"});
    EXPECT_EQ(r.errors, 3u);
    int missing_reason = 0, unknown_rule = 0, unused = 0;
    for (const Finding &f : r.findings) {
        EXPECT_EQ(f.code, "S0");
        if (f.message.find("must carry a reason") != std::string::npos)
            ++missing_reason;
        if (f.message.find("unknown rule") != std::string::npos)
            ++unknown_rule;
        if (f.message.find("unused suppression") != std::string::npos)
            ++unused;
    }
    EXPECT_EQ(missing_reason, 1);
    EXPECT_EQ(unknown_rule, 1);
    EXPECT_EQ(unused, 1);
    expectMatchesGolden(r, "s0_positive");
}

TEST(SiloLintR6, PositiveFlagsUpwardIncludeAndCycle)
{
    Result r = lintFixture("r6/positive",
                           {"src/sim/uses_harness.hh", "src/sim/a.hh",
                            "src/sim/b.hh"});
    EXPECT_EQ(r.errors, 2u);
    bool upward = false, cycle = false;
    for (const Finding &f : r.findings) {
        EXPECT_EQ(f.rule, "module-layering");
        if (f.message.find("may not include") != std::string::npos)
            upward = true;
        if (f.message.find("include cycle") != std::string::npos)
            cycle = true;
    }
    EXPECT_TRUE(upward) << "sim -> harness include not flagged";
    EXPECT_TRUE(cycle) << "a.hh <-> b.hh cycle not flagged";
    expectMatchesGolden(r, "r6_positive");
}

TEST(SiloLintR6, NegativeDownwardIncludesStayClean)
{
    Result r = lintFixture("r6/negative",
                           {"src/mc/ok.hh", "src/nvm/dev.hh",
                            "src/sim/types.hh"});
    EXPECT_EQ(r.errors, 0u);
    EXPECT_TRUE(r.findings.empty());
}

TEST(SiloLintR6, SuppressedTransitionalIncludeIsAllowed)
{
    Result r = lintFixture("r6/suppressed", {"src/sim/peek.hh"});
    EXPECT_EQ(r.errors, 0u);
    ASSERT_EQ(r.suppressed, 1u);
    EXPECT_EQ(r.findings[0].reason,
              "transitional — the checker interface moves down into "
              "sim next release");
}

TEST(SiloLintR10, DuplicateGrantIsFlagged)
{
    Result r = lintFixture("r10", {"dup.cc"});
    EXPECT_EQ(r.errors, 2u);   // duplicate grant + unused directive
    EXPECT_EQ(r.suppressed, 1u);
    bool dup = false, unused = false;
    for (const Finding &f : r.findings) {
        if (f.message.find("duplicate suppression") !=
            std::string::npos) {
            EXPECT_EQ(f.rule, "suppression-hygiene");
            dup = true;
        }
        if (f.message.find("unused suppression") != std::string::npos)
            unused = true;
    }
    EXPECT_TRUE(dup);
    EXPECT_TRUE(unused);
    expectMatchesGolden(r, "r10_dup");
}

TEST(SiloLintR10, LateAllowfileIsFlaggedButStillSuppresses)
{
    Result r = lintFixture("r10", {"late.cc"});
    EXPECT_EQ(r.errors, 1u);
    EXPECT_EQ(r.suppressed, 1u);
    ASSERT_FALSE(r.findings.empty());
    bool placement = false;
    for (const Finding &f : r.findings)
        if (f.message.find("must appear before the first code") !=
            std::string::npos)
            placement = true;
    EXPECT_TRUE(placement);
}

TEST(SiloLintR10, NegativeTopAllowfileStaysClean)
{
    Result r = lintFixture("r10", {"negative.cc"});
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.suppressed, 2u);
}

TEST(SiloLintR10, PlacementFindingIsItselfSuppressible)
{
    Result r = lintFixture("r10", {"suppressed.cc"});
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.suppressed, 2u);   // the R10 finding and the R2 one
}

TEST(SiloLintSuppress, MultiRuleAllowCoversBothRules)
{
    Result r = lintFixture("suppress", {"multirule.cc"});
    EXPECT_EQ(r.errors, 0u);
    ASSERT_EQ(r.suppressed, 2u);   // R1 and R2 on the same line
    for (const Finding &f : r.findings) {
        EXPECT_TRUE(f.suppressed);
        EXPECT_EQ(f.reason,
                  "deliberate joint fixture for the multi-rule "
                  "grammar");
    }
}

TEST(SiloLintSuppress, PartiallyUsedListReportsTheUnusedRule)
{
    Result r = lintFixture("suppress", {"partial.cc"});
    EXPECT_EQ(r.errors, 1u);
    EXPECT_EQ(r.suppressed, 1u);
    bool unused_r1 = false;
    for (const Finding &f : r.findings)
        if (!f.suppressed) {
            EXPECT_EQ(f.code, "S0");
            if (f.message.find("unused suppression for R1") !=
                std::string::npos)
                unused_r1 = true;
        }
    EXPECT_TRUE(unused_r1)
        << "the unfired R1 entry must be reported individually";
}

TEST(SiloLintSuppress, CrlfEndingsParseAndReasonIsClean)
{
    Result r = lintFixture("suppress", {"crlf.cc"});
    EXPECT_EQ(r.errors, 0u);
    ASSERT_EQ(r.suppressed, 1u);
    // The \r must not leak into the recorded reason.
    EXPECT_EQ(r.findings[0].reason,
              "windows line endings still parse");
}

TEST(SiloLintSuppress, TrailingWhitespaceReasonIsTrimmed)
{
    Result r = lintFixture("suppress", {"trailing.cc"});
    EXPECT_EQ(r.errors, 0u);
    ASSERT_EQ(r.suppressed, 1u);
    EXPECT_EQ(r.findings[0].reason,
              "reason text with trailing blanks");
}

TEST(SiloLintS0, AllowOnLastLineWithoutNewlineIsUnused)
{
    Result r = lintFixture("s0", {"lastline.cc"});
    EXPECT_EQ(r.errors, 1u);
    EXPECT_EQ(r.suppressed, 0u);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].code, "S0");
    EXPECT_NE(r.findings[0].message.find("unused suppression for R1"),
              std::string::npos);
}

TEST(SiloLintChanged, OnlyFindingsInChangedFilesAreReported)
{
    Options opts;
    opts.root = fixtures + "/r1";
    opts.files = {"positive.cc", "negative.cc"};
    opts.changedOnly = true;
    opts.changedFiles = {"negative.cc"};
    Result r = runLint(opts);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.filesScanned, 2u)
        << "--changed must still scan the full corpus";

    opts.changedFiles = {"positive.cc"};
    r = runLint(opts);
    EXPECT_EQ(r.errors, 2u);
}

TEST(SiloLintJson, SchemaAndEscaping)
{
    Result r = lintFixture("r1", {"positive.cc"});
    std::string json = toJson(r);
    EXPECT_NE(json.find("\"schema\": \"silo-lint-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
    EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
}

TEST(SiloLintSarif, StructureRulesAndSuppressions)
{
    Result r = lintFixture("r1", {"positive.cc"});
    std::string sarif = toSarif(r);
    EXPECT_NE(sarif.find("sarif-2.1.0"), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"R1\""), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\""), std::string::npos);
    // An all-error run carries no suppressions blocks.
    EXPECT_EQ(sarif.find("\"suppressions\""), std::string::npos);
    expectMatchesSarifGolden(r, "r1_positive");

    Result s = lintFixture("r1", {"suppressed.cc"});
    std::string ssarif = toSarif(s);
    EXPECT_NE(ssarif.find("\"suppressions\""), std::string::npos);
    EXPECT_NE(ssarif.find("\"kind\": \"inSource\""),
              std::string::npos);
    expectMatchesSarifGolden(s, "r1_suppressed");
}

// --- R14: enum exhaustiveness ------------------------------------

TEST(SiloLintR14, MissingEnumeratorAndBareDefault)
{
    Result r = lintFixture("protocol/enum-switch",
                           {"src/sim/kinds.cc"});
    ASSERT_EQ(r.errors, 2u);
    EXPECT_NE(r.findings[0].message.find("does not cover: "
                                         "ReorderLogData"),
              std::string::npos);
    EXPECT_NE(r.findings[1].message.find("without a reason comment"),
              std::string::npos);
    expectMatchesGolden(r, "protocol_enum_switch");
    expectMatchesSarifGolden(r, "protocol_enum_switch");
}

/**
 * The gate: the repository itself must lint clean. Any new finding is
 * either a real determinism/persistency hazard to fix or needs an
 * explicit allow() carrying a reason.
 */
TEST(SiloLintSelfRun, RepositoryHasZeroUnsuppressedFindings)
{
    Options opts;
    opts.root = SILO_REPO_ROOT;
    Result r = runLint(opts);
    EXPECT_GE(r.filesScanned, 100u)
        << "self-run scanned suspiciously few files — wrong root?";
    for (const Finding &f : r.findings) {
        if (!f.suppressed)
            ADD_FAILURE() << f.file << ":" << f.line << " [" << f.code
                          << " " << f.rule << "] " << f.message;
    }
    EXPECT_EQ(r.errors, 0u);
}

// --- --changed: git name-status parsing ----------------------------

TEST(SiloLintChanged, NameStatusParsesRenamesAndDeletes)
{
    const std::string text =
        "M\tsrc/sim/config.hh\n"
        "A\tsrc/log/new_scheme.cc\n"
        "D\tsrc/log/gone.cc\n"
        "R087\tsrc/log/old_name.cc\tsrc/log/new_name.cc\n"
        "C75\tsrc/a.cc\tsrc/b.cc\n"
        "T\tsrc/sim/link.hh\r\n"
        "bare/name-only/path.cc\n";
    auto paths = parseNameStatus(text);
    ASSERT_EQ(paths.size(), 6u);
    EXPECT_EQ(paths[0], "src/sim/config.hh");
    EXPECT_EQ(paths[1], "src/log/new_scheme.cc");
    // The deletion is dropped entirely; the rename and copy resolve
    // to the surviving (new) path, not the old one.
    EXPECT_EQ(paths[2], "src/log/new_name.cc");
    EXPECT_EQ(paths[3], "src/b.cc");
    EXPECT_EQ(paths[4], "src/sim/link.hh");
    EXPECT_EQ(paths[5], "bare/name-only/path.cc");
}

TEST(SiloLintChanged, RenamedFileReportsUnderItsNewPath)
{
    // A rename leaves only the new path in changedFiles; findings in
    // that file must be reported, and the vanished old path must not
    // resurrect anything.
    Options opts;
    opts.root = fixtures + "/r1";
    opts.files = {"positive.cc", "negative.cc"};
    opts.changedOnly = true;
    opts.changedFiles =
        parseNameStatus("R100\told.cc\tpositive.cc\n"
                        "D\tdeleted.cc\n");
    Result r = runLint(opts);
    EXPECT_EQ(r.errors, 2u);
    for (const Finding &f : r.findings)
        EXPECT_EQ(f.file, "positive.cc");
}

} // namespace
} // namespace silo::lint
