/**
 * @file
 * Replays every committed litmus fixture under tests/check/litmus/
 * and asserts both fixture promises hold: all six schemes run the
 * program clean, and the recorded mutation still produces the recorded
 * violation kind. This is the regression gate a shrunk fuzzer finding
 * graduates into.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "fuzz/fixture.hh"

namespace silo::fuzz
{
namespace
{

std::vector<std::string>
fixturePaths()
{
    std::vector<std::string> out;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(SILO_TEST_DIR) + "/check/litmus")) {
        if (entry.path().extension() == ".litmus")
            out.push_back(entry.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FixtureReplay, BatchIsPresent)
{
    // One fixture per mutation kind (7) is the committed floor; the
    // nightly fuzz run can grow the set but never shrink it.
    EXPECT_GE(fixturePaths().size(), 7u);
}

TEST(FixtureReplay, EveryFixtureKeepsItsPromises)
{
    for (const std::string &path : fixturePaths()) {
        SCOPED_TRACE(path);
        LitmusFixture fixture = loadFixtureFile(path);
        for (const std::string &broken : replayFixture(fixture))
            ADD_FAILURE() << broken;
    }
}

TEST(FixtureReplay, ParseRejectsInconsistentMetadata)
{
    LitmusFixture fixture;
    workload::LitmusThread thread;
    workload::LitmusTx tx;
    tx.ops.push_back({workload::LitmusOp::Kind::Store, 0x40, 1});
    thread.txs.push_back(tx);
    fixture.program.threads.push_back(thread);

    // A mutation with expect=clean could never replay successfully;
    // parseFixture must reject it up front.
    fixture.mutation = MutationKind::DropUndoLog;
    fixture.expect = "clean";
    EXPECT_THROW(parseFixture(serializeFixture(fixture)), FatalError);

    // And a violation expectation without a mutation is equally
    // inconsistent (clean schemes must not violate).
    fixture.mutation = MutationKind::None;
    fixture.expect = "log-before-data";
    EXPECT_THROW(parseFixture(serializeFixture(fixture)), FatalError);

    // The crash index is decimal or 0x hex: a sign (-5 would wrap to
    // 2^64 - 5), an octal-looking leading zero (010) or trailing junk
    // is rejected instead of replaying some other index.
    fixture.expect = "clean";
    const std::string text = serializeFixture(fixture);
    const std::string crash_line = "\ncrash 0\n";
    ASSERT_NE(text.find(crash_line), std::string::npos);
    for (const char *bad : {"-5", "010", "1x"}) {
        std::string edited = text;
        edited.replace(edited.find(crash_line), crash_line.size(),
                       std::string("\ncrash ") + bad + "\n");
        EXPECT_THROW(parseFixture(edited), FatalError) << bad;
    }
}

TEST(FixtureReplay, SerializeParseRoundTrip)
{
    for (const std::string &path : fixturePaths()) {
        SCOPED_TRACE(path);
        LitmusFixture fixture = loadFixtureFile(path);
        LitmusFixture again =
            parseFixture(serializeFixture(fixture));
        EXPECT_EQ(serializeFixture(again), serializeFixture(fixture));
        EXPECT_EQ(again.scheme, fixture.scheme);
        EXPECT_EQ(again.crashIndex, fixture.crashIndex);
        EXPECT_EQ(again.mutation, fixture.mutation);
        EXPECT_EQ(again.expect, fixture.expect);
    }
}

} // namespace
} // namespace silo::fuzz
