/**
 * @file
 * Exact simulated and host-side counts gathered over one pass of a
 * workload, read from the program's exported results: SimReport,
 * System::statsJson() ("silo-stats-v1") and public accessors.
 */

#ifndef PERFBENCH_COUNTS_HH
#define PERFBENCH_COUNTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/system.hh"

namespace perfbench
{

/** Counts summed over every System a pass built. */
struct SimCounts
{
    /** @name Host-side, exact at one worker */
    /// @{
    std::uint64_t systems = 0;
    std::uint64_t constructAllocs = 0;
    std::uint64_t constructBytes = 0;
    /** Allocations and events inside run/runEvents and settle. */
    std::uint64_t runAllocs = 0;
    std::uint64_t runEvents = 0;
    /// @}

    /** @name Simulated */
    /// @{
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    std::uint64_t committedTx = 0;
    std::uint64_t commitStallCycles = 0;
    std::uint64_t wpqFullStalls = 0;
    std::uint64_t mediaWordWrites = 0;
    std::uint64_t logRecordsWritten = 0;
    std::uint64_t l1dHits = 0, l1dMisses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t l3Hits = 0, l3Misses = 0;
    std::uint64_t dcwSuppressedWords = 0;
    std::uint64_t siloMerged = 0, siloIgnored = 0, siloInPlace = 0;
    /** WPQ occupancy histogram merged over every controller. */
    std::vector<std::uint64_t> wpqOccBuckets;
    std::uint64_t wpqOccWidth = 0;
    std::uint64_t wpqOccOverflow = 0;
    std::uint64_t wpqOccMax = 0;
    /// @}

    /** @name Crash, recovery and checking */
    /// @{
    std::uint64_t liveRecordsAtCrash = 0;
    std::uint64_t mismatchWords = 0;
    std::uint64_t violations = 0;
    std::uint64_t fuzzPrograms = 0;
    std::uint64_t fuzzCases = 0;
    std::uint64_t fuzzCrashCases = 0;
    /// @}

    /** Add the headline fields of one report. */
    void addReport(const silo::harness::SimReport &r);

    /**
     * Add the cache, WPQ, PM and Silo counters of one statsJson()
     * document; false if it does not parse.
     */
    bool addStatsJson(const std::string &json);

    /** p99 of the merged WPQ occupancy histogram. */
    double wpqOccupancyP99() const;

    /** Every simulated count as name -> value (for digests/tests). */
    std::map<std::string, double> simulated() const;
};

} // namespace perfbench

#endif // PERFBENCH_COUNTS_HH
