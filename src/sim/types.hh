/**
 * @file
 * Fundamental simulator types: time, addresses, and geometry helpers.
 *
 * The simulator counts time in CPU cycles of the (single) core clock
 * domain described in Table II of the paper (2 GHz). PM latencies given
 * in nanoseconds are converted into cycles with cyclesFromNs().
 */

#ifndef SILO_SIM_TYPES_HH
#define SILO_SIM_TYPES_HH

#include <cstdint>
#include <cstddef>

namespace silo
{

/** Simulated time, in CPU cycles (2 GHz). */
using Tick = std::uint64_t;

/** A relative duration in CPU cycles. */
using Cycles = std::uint64_t;

/** A 48-bit physical address (stored in 64 bits). */
using Addr = std::uint64_t;

/** A machine word as stored in PM (8 bytes on 64-bit CPUs). */
using Word = std::uint64_t;

/** Sentinel for "no time scheduled". */
constexpr Tick maxTick = ~Tick(0);

/** Size of a machine word in bytes (one CPU store, one log data slot). */
constexpr unsigned wordBytes = 8;

/** Size of a cacheline in bytes (Table II). */
constexpr unsigned lineBytes = 64;

/** Words per cacheline. */
constexpr unsigned wordsPerLine = lineBytes / wordBytes;

/** The core clock, in GHz (Table II). */
constexpr double coreGhz = 2.0;

/** Line size of the on-PM internal buffer in bytes (§III-E). */
constexpr unsigned pmBufferLineBytes = 256;

/** Undo log entry size in bytes: metadata + old word (§III-F). */
constexpr unsigned undoLogEntryBytes = 18;

/** Undo+redo log entry size in bytes: metadata + old + new (§VI-D). */
constexpr unsigned undoRedoLogEntryBytes = 26;

/** Align @p addr down to the containing word. */
constexpr Addr
wordAlign(Addr addr)
{
    return addr & ~Addr(wordBytes - 1);
}

/** Align @p addr down to the containing cacheline. */
constexpr Addr
lineAlign(Addr addr)
{
    return addr & ~Addr(lineBytes - 1);
}

/** Align @p addr down to the containing on-PM buffer line. */
constexpr Addr
pmLineAlign(Addr addr)
{
    return addr & ~Addr(pmBufferLineBytes - 1);
}

/** Index of the word containing @p addr within its cacheline. */
constexpr unsigned
wordInLine(Addr addr)
{
    return unsigned((addr & (lineBytes - 1)) / wordBytes);
}

/** Convert nanoseconds to core cycles (rounding up). */
constexpr Cycles
cyclesFromNs(double ns)
{
    return Cycles(ns * coreGhz + 0.5);
}

} // namespace silo

#endif // SILO_SIM_TYPES_HH
