/**
 * @file
 * The litmus fuzz campaign: generate → sweep → shrink → fixture.
 *
 * One campaign repeats, until a program count or wall-clock budget is
 * reached:
 *
 *  1. generate a tiny adversarial litmus program from the seeded
 *     stream (litmus_gen.hh) and compile it once;
 *  2. phase A — run it to completion on every scheme under test
 *     (in parallel on Sweep::parallelFor, $SILO_JOBS workers),
 *     collecting each run's executed-event count E;
 *  3. phase B — sweep a crash at EVERY event index k in [1, E] (or a
 *     stride of it) of every scheme with a clean completion, from one
 *     forward run per scheme (harness::sweepCrashes(): after event k a
 *     copy of the persistent domain and the checker crashes, recovers
 *     and is validated by the persistency checker, invariants 1–5 +
 *     crash closure; indices past the run's stop point reuse the
 *     stop-point verdict), fanned out per scheme;
 *  4. for the first failing case per (program, scheme), shrink the
 *     (program, crash index) pair against a violation-kind-matching
 *     oracle (shrink.hh) and serialize the result as a litmus fixture
 *     (fixture.hh) into FuzzOptions::outDir.
 *
 * Determinism contract: with a fixed seed and program count (no
 * wall-clock budget), the campaign — programs, case order, findings,
 * fixture bytes, summary JSON — is byte-for-byte reproducible at any
 * job count; the budget only decides whether to start the next
 * program. Seeded
 * MutationKind bugs turn the campaign into a self-test: the fuzzer
 * must find and shrink every mutant (tests/fuzz/fuzz_test.cc).
 */

#ifndef SILO_FUZZ_CAMPAIGN_HH
#define SILO_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "check/persistency_checker.hh"
#include "fuzz/litmus_gen.hh"
#include "sim/config.hh"
#include "workload/litmus.hh"

namespace silo::fuzz
{

/** Campaign controls (tools/litmus maps flags + SILO_FUZZ_* here). */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    /** Programs to generate; 0 = until the budget expires. */
    std::uint64_t maxPrograms = 20;
    /** Wall-clock budget in seconds; 0 = none. Checked only between
     *  programs, so it never perturbs a program's own results. */
    double budgetSeconds = 0;
    /** Crash every k-th event index (1 = every single index). */
    std::uint64_t crashStride = 1;
    /** Seeded bug to plant (self-test mode); None fuzzes the real
     *  schemes. */
    MutationKind mutation = MutationKind::None;
    /** Run every case under the segmented log lifecycle (tiny segment
     *  geometry, see litmusSimConfig): the crash sweep then also lands
     *  inside cleaner and checkpoint events, and the checker's
     *  invariants 6–7 are exercised. */
    bool segmented = false;
    /** Schemes under test; empty = all six. */
    std::vector<SchemeKind> schemes;
    LitmusGenConfig gen;
    /** Directory for shrunk fixture files; empty = don't write. */
    std::string outDir;
};

/** One failing (program, scheme) case, after shrinking. */
struct FuzzFinding
{
    std::string programName;
    SchemeKind scheme = SchemeKind::Silo;
    MutationKind mutation = MutationKind::None;
    check::ViolationKind kind = check::ViolationKind::LogBeforeData;
    /** First violation of the original (unshrunk) failing case. */
    check::Violation original;
    /** Crash index of the original failing case (0 = completion). */
    std::uint64_t crashIndex = 0;
    workload::LitmusProgram shrunk;
    std::uint64_t shrunkCrashIndex = 0;
    std::size_t oracleCalls = 0;
    /** Fixture file written for this finding ("" if outDir unset). */
    std::string fixturePath;
};

/** Campaign outcome + deterministic summary. */
struct FuzzCampaignResult
{
    std::uint64_t programsRun = 0;
    /** Simulated cases (completion + crash cases + shrink oracles). */
    std::uint64_t casesRun = 0;
    /** Crash-injection cases swept (subset of casesRun). */
    std::uint64_t crashCases = 0;
    std::vector<FuzzFinding> findings;
    /** True when the wall-clock budget stopped the campaign. */
    bool budgetExhausted = false;

    /**
     * One-line-per-field JSON summary. Deterministic except for
     * "budget_exhausted" (which depends on the host clock only when a
     * budget is set).
     */
    std::string summaryJson(const FuzzOptions &opts) const;
};

/**
 * Run a campaign. @p log, when non-null, receives one progress line
 * per program and per finding (the tool's -v stream).
 */
FuzzCampaignResult runFuzzCampaign(const FuzzOptions &opts,
                                   std::ostream *log = nullptr);

} // namespace silo::fuzz

#endif // SILO_FUZZ_CAMPAIGN_HH
