/**
 * @file
 * Seeded generator of adversarial litmus programs.
 *
 * Programs are deliberately tiny (a few threads, a few transactions,
 * a handful of stores) so a crash can be injected at EVERY event index
 * of every scheme in seconds, but they are built from the shapes known
 * to break persistency orderings ("Lost in Interpretation", PAPERS.md):
 *
 *  - overlapping write sets: per-thread address pools of only a few
 *    cachelines, so consecutive transactions rewrite each other's
 *    lines while the previous values still sit in the WPQ / on-PM
 *    buffer / flush-bit state;
 *  - cross-line and buffer-line-straddling runs: word runs spanning a
 *    64 B cacheline boundary and the 256 B on-PM buffer line boundary
 *    (where WPQ entries and buffer lines split a run);
 *  - silent stores and same-word rewrites: exercise Silo's log
 *    ignorance and comparator merging;
 *  - back-to-back tiny (even empty) transactions: commit-marker and
 *    log-truncation churn;
 *  - abort mixes: a thread's final transaction can stay open, so the
 *    crash sweep observes uncommitted state in every micro-state.
 *
 * All randomness flows through the caller's seeded Rng, so a fuzz run
 * is replayable from the campaign seed (litmus fuzz --seed) alone.
 */

#ifndef SILO_FUZZ_LITMUS_GEN_HH
#define SILO_FUZZ_LITMUS_GEN_HH

#include <cstdint>

#include "sim/rng.hh"
#include "workload/litmus.hh"

namespace silo::fuzz
{

/** Shape knobs of the litmus generator (defaults: tiny + adversarial). */
struct LitmusGenConfig
{
    unsigned minThreads = 1;
    unsigned maxThreads = 3;
    unsigned minTxPerThread = 1;
    unsigned maxTxPerThread = 4;
    unsigned maxOpsPerTx = 10;
    /** Distinct word offsets in each thread's pool (overlap pressure). */
    unsigned poolWords = 12;
    /** P(an op is a load). */
    double loadFraction = 0.15;
    /** P(a thread's final transaction stays open). */
    double abortFraction = 0.25;
    /** P(a store repeats the word's current value) — silent store. */
    double silentStoreFraction = 0.15;
    /** P(a transaction is empty) — back-to-back commit markers. */
    double emptyTxFraction = 0.05;
    /**
     * P(a thread uses the conflict pool: many lines aliasing one cache
     * set of the tiny fuzz caches, so long transactions overflow every
     * level and evict still-uncommitted lines into the persistent
     * domain — the shape the flush-bit / crash-recovery mutants need).
     */
    double conflictThreadFraction = 0.5;
};

/**
 * Generate one program from @p rng. @p label becomes the program name
 * (fuzz campaigns use "fuzz-<seed>-<index>").
 */
workload::LitmusProgram generateLitmus(Rng &rng,
                                       const LitmusGenConfig &cfg,
                                       const std::string &label);

} // namespace silo::fuzz

#endif // SILO_FUZZ_LITMUS_GEN_HH
