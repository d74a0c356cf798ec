/**
 * @file
 * Tests pinning the stable machine-readable encoding of checker
 * violations: kebab-case kind names (fixture files match on them) and
 * the one-line Violation::toJson() object.
 */

#include <gtest/gtest.h>

#include "check/persistency_checker.hh"

namespace silo::check
{
namespace
{

constexpr ViolationKind allKinds[] = {
    ViolationKind::LogBeforeData,       ViolationKind::CommitNotDurable,
    ViolationKind::HeldReleaseOrdering, ViolationKind::FlushBitAccounting,
    ViolationKind::DoublePersist,       ViolationKind::CrashClosure,
    ViolationKind::LiveRecordReclaimed, ViolationKind::CheckpointImage,
};

TEST(ViolationNames, StableKebabCaseEncoding)
{
    // These strings are a format, not a label: committed fixtures under
    // tests/check/litmus/ carry them in `expect` lines. Renaming one is
    // a format break and must show up here.
    EXPECT_STREQ(violationName(ViolationKind::LogBeforeData),
                 "log-before-data");
    EXPECT_STREQ(violationName(ViolationKind::CommitNotDurable),
                 "commit-not-durable");
    EXPECT_STREQ(violationName(ViolationKind::HeldReleaseOrdering),
                 "held-release-ordering");
    EXPECT_STREQ(violationName(ViolationKind::FlushBitAccounting),
                 "flush-bit-accounting");
    EXPECT_STREQ(violationName(ViolationKind::DoublePersist),
                 "double-persist");
    EXPECT_STREQ(violationName(ViolationKind::CrashClosure),
                 "crash-closure");
    EXPECT_STREQ(violationName(ViolationKind::LiveRecordReclaimed),
                 "live-record-reclaimed");
    EXPECT_STREQ(violationName(ViolationKind::CheckpointImage),
                 "checkpoint-image");
}

TEST(ViolationNames, RoundTripAndUnknownRejected)
{
    for (ViolationKind kind : allKinds)
        EXPECT_EQ(violationKindFromName(violationName(kind)), kind);
    EXPECT_THROW(violationKindFromName("no-such-kind"), FatalError);
    EXPECT_THROW(violationKindFromName(""), FatalError);
    // Invariant 5's kind is retired: the types bound a media write to
    // one on-PM buffer line (sim/persistent_domain.hh).
    EXPECT_THROW(violationKindFromName("torn-write"), FatalError);
}

TEST(ViolationJson, GoldenObject)
{
    Violation v;
    v.kind = ViolationKind::CrashClosure;
    v.tick = 1234;
    v.core = 2;
    v.txid = 17;
    v.addr = 0x1f40;
    v.detail = "word differs";
    v.crashIndex = 55;
    EXPECT_EQ(v.toJson(),
              "{\"kind\": \"crash-closure\", \"tick\": 1234, "
              "\"core\": 2, \"txid\": 17, \"addr\": \"0x1f40\", "
              "\"crash_index\": 55, \"detail\": \"word differs\"}");
}

TEST(ViolationJson, DetailIsEscaped)
{
    Violation v;
    v.kind = ViolationKind::LogBeforeData;
    v.detail = "quote \" backslash \\ newline \n tab \t bell \x07";
    std::string json = v.toJson();
    EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n "
                        "tab \\t bell \\u0007"),
              std::string::npos)
        << json;
    // The escaped payload must not leak raw control characters.
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json.find('\x07'), std::string::npos);
}

TEST(ViolationJson, DefaultCrashIndexMeansCompletionRun)
{
    Violation v;
    v.kind = ViolationKind::LogBeforeData;
    EXPECT_NE(v.toJson().find("\"crash_index\": 0"), std::string::npos);
}

} // namespace
} // namespace silo::check
