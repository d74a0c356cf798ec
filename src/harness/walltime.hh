/**
 * @file
 * The harness wall-clock shim — the one sanctioned real-time source.
 *
 * Simulated results must never depend on the host clock, so silo-lint
 * rule R2 (ambient-entropy) bans wall-clock reads everywhere except
 * here. Callers that need real time for progress/ETA lines or
 * self-performance measurement take it from wallSeconds(); nothing
 * read from this shim may flow into a SimReport, results/<bench>.json or a
 * golden digest.
 */

#ifndef SILO_HARNESS_WALLTIME_HH
#define SILO_HARNESS_WALLTIME_HH

#include <chrono>

namespace silo::harness
{

/** Monotonic wall-clock seconds (arbitrary epoch; diff two reads). */
inline double
wallSeconds()
{
    using namespace std::chrono;
    // silo-lint: allow(ambient-entropy) the sanctioned wall-clock shim: feeds progress/ETA and self-timing only, never results
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

} // namespace silo::harness

#endif // SILO_HARNESS_WALLTIME_HH
