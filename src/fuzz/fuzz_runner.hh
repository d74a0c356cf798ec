/**
 * @file
 * Single-case execution for the litmus fuzzer: run one litmus program
 * on one scheme, optionally with a seeded mutation and a crash
 * injected at a given event index, and return the persistency
 * checker's verdict. This is the per-case path, a fresh System per
 * case, which the shrinker's oracle, FixtureReplay and `litmus replay`
 * use; the campaign's crash sweep gets the same verdicts from one
 * forward run per (program, scheme) (harness::sweepCrashes()).
 *
 * The simulated machine is a FIXED deterministic function of
 * (program, scheme, mutation) — litmusSimConfig() — so a committed
 * fixture only needs to record those three plus the crash index to be
 * replayable bit-for-bit. The config shrinks the caches and the log
 * buffer far below the paper's Table II on purpose: tiny programs must
 * still reach evictions, log-buffer overflow and on-PM buffer churn
 * within a few hundred events.
 */

#ifndef SILO_FUZZ_FUZZ_RUNNER_HH
#define SILO_FUZZ_FUZZ_RUNNER_HH

#include <cstdint>
#include <vector>

#include "check/persistency_checker.hh"
#include "sim/config.hh"
#include "workload/litmus.hh"

namespace silo::fuzz
{

/** Everything about one case except the program itself. */
struct FuzzCaseConfig
{
    SchemeKind scheme = SchemeKind::Silo;
    /** Seeded checker bug (the fuzzer's self-test target). */
    MutationKind mutation = MutationKind::None;
    /**
     * Crash after this many executed events, or at the run's stop
     * point (the last core's requestStop()) if that comes first;
     * 0 = run to completion (settle + clean drain, no crash or
     * recovery).
     */
    std::uint64_t crashIndex = 0;
    /**
     * Run with the segmented log lifecycle on, under a deliberately
     * tiny segment geometry (see litmusSimConfig) so small programs
     * reach cleaning, checkpoints and admission backpressure; the
     * crash sweep then lands inside cleaner and checkpoint events too.
     */
    bool segmented = false;
};

/** Verdict of one case. */
struct FuzzCaseResult
{
    /** Checker findings, each stamped with the case's crashIndex. */
    std::vector<check::Violation> violations;
    /**
     * Events the run actually executed. A completion run's count,
     * settle phase included, bounds the crash sweep: every k in
     * [1, executedEvents] is a crash case, but a k past the run's
     * stop point crashes the stop-point state, so no settle-phase
     * event is ever a crash point.
     */
    std::uint64_t executedEvents = 0;
    /** Durably committed transactions (checker's count). */
    std::uint64_t commits = 0;

    bool clean() const { return violations.empty(); }
};

/**
 * The fixed simulated-machine configuration of a litmus case.
 * @p threads must be the program's thread count (= core count).
 */
SimConfig litmusSimConfig(unsigned threads, SchemeKind scheme,
                          MutationKind mutation = MutationKind::None,
                          bool segmented = false);

/** Run one case on pre-compiled traces (@p threads as above). */
FuzzCaseResult runLitmusCase(const workload::WorkloadTraces &traces,
                             unsigned threads,
                             const FuzzCaseConfig &cfg);

/** Convenience: compile @p program and run one case. */
FuzzCaseResult runLitmusCase(const workload::LitmusProgram &program,
                             const FuzzCaseConfig &cfg);

} // namespace silo::fuzz

#endif // SILO_FUZZ_FUZZ_RUNNER_HH
