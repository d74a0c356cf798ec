/**
 * @file
 * Single-case execution for the litmus fuzzer: run one litmus program
 * on one scheme, optionally with a seeded mutation, crash a copy at a
 * given event index and finish the run, and return the persistency
 * checker's verdicts. This is the per-case path, one System per case,
 * which the shrinker's oracle and both fixture promises use. The
 * campaign gets the same verdicts from one System per (program,
 * scheme), which crashes a copy after every swept event and finishes
 * as the completion case (harness::sweepCrashes()), so all of them
 * give a crash index one meaning: a copy crashed after runEvents(k).
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
     * Crash a copy after this many executed events, or at the run's
     * stop point (the last core's requestStop()) if that comes first;
     * 0 = no crash, the completion run only (settle + clean drain).
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
     * Events the completion run executed, settle phase included (0
     * in a crash's verdict). That count bounds the crash sweep: every
     * k in [1, executedEvents] is a crash case, but a k past the run's
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

/** Both verdicts of one case (runLitmusCase()). */
struct LitmusCaseResult
{
    std::uint64_t crashIndex = 0;
    /** The copy crashed at crashIndex; clean when crashIndex is 0. */
    FuzzCaseResult crashed;
    /** The System finished as the completion case. */
    FuzzCaseResult completion;

    /** The case's verdict: the crash's, or at index 0 the completion's. */
    const FuzzCaseResult &
    verdict() const
    {
        return crashIndex != 0 ? crashed : completion;
    }
};

/**
 * Compile @p program onto a fresh System, crash a copy of it at
 * cfg.crashIndex (runEvents(k), System::crashCopy()), then finish the
 * System as the completion case.
 */
LitmusCaseResult runLitmusCase(const workload::LitmusProgram &program,
                               const FuzzCaseConfig &cfg);

/**
 * The verdict @p checker holds, each violation stamped with
 * @p crash_index (executedEvents is left 0).
 */
FuzzCaseResult checkerVerdict(const check::PersistencyChecker &checker,
                              std::uint64_t crash_index);

} // namespace silo::fuzz

#endif // SILO_FUZZ_FUZZ_RUNNER_HH
