/**
 * @file
 * Litmus regression fixtures: self-contained "litmus v1" files that
 * record a shrunk fuzzer reproducer plus the case metadata needed to
 * replay it bit-for-bit (tests/check/litmus/<name>.litmus).
 *
 * The metadata rides in the litmus file's free header keys:
 *
 *   scheme Silo                (SchemeKind the case ran on)
 *   crash 118                  (event index, decimal or 0x hex;
 *                               0 = completion run)
 *   mutation stale-flush-bit   (seeded bug that produced it, or none)
 *   expect flush-bit-accounting(violationName() under the mutation,
 *                               or `clean` for a true-positive find)
 *   segmented 1                (ran under the tiny segmented-log
 *                               lifecycle geometry; default 0)
 *   provenance seed=42 ...     (free text, not interpreted)
 *
 * A committed fixture makes two promises, and replayFixture() checks
 * both:
 *
 *  1. With no mutation, ALL six schemes replay the program clean —
 *     both to completion and crashed at the recorded index: both
 *     verdicts of runLitmusCase(), whose System crashes a copy at the
 *     index and then finishes as the completion case. (A real scheme
 *     bug would first surface here as a regression.)
 *  2. If the fixture records a mutation, replaying the recorded
 *     (scheme, mutation, crash index) with runLitmusCase() still
 *     yields a violation of the expected kind — proof the fixture
 *     still exercises the seeded bug path it was shrunk against, i.e.
 *     the checker can still see it.
 */

#ifndef SILO_FUZZ_FIXTURE_HH
#define SILO_FUZZ_FIXTURE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz_runner.hh"
#include "workload/litmus.hh"

namespace silo::fuzz
{

/** A shrunk reproducer plus the case it reproduces. */
struct LitmusFixture
{
    workload::LitmusProgram program;
    SchemeKind scheme = SchemeKind::Silo;
    std::uint64_t crashIndex = 0;
    /** Seeded bug the case ran under; None = found on a real scheme. */
    MutationKind mutation = MutationKind::None;
    /** violationName() expected under the mutation, or "clean". */
    std::string expect = "clean";
    /** Replay under the segmented-log lifecycle (tiny geometry). */
    bool segmented = false;
    /** Free provenance text (seed, campaign, date); not interpreted. */
    std::string provenance;
};

/** Canonical fixture text (litmus v1 + metadata header). */
std::string serializeFixture(const LitmusFixture &fixture);

/** Parse fixture text; fatal() on malformed metadata. */
LitmusFixture parseFixture(const std::string &text);

/** Read + parse a fixture file; fatal() if unreadable. */
LitmusFixture loadFixtureFile(const std::string &path);

/**
 * Replay @p fixture per the two promises in the file header.
 * @return one human-readable message per broken promise; empty = pass.
 */
std::vector<std::string> replayFixture(const LitmusFixture &fixture);

} // namespace silo::fuzz

#endif // SILO_FUZZ_FIXTURE_HH
