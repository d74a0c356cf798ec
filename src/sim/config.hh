/**
 * @file
 * Simulated-system configuration (defaults follow Table II of the paper).
 *
 * One SimConfig fully describes a system: core count, cache geometry,
 * memory-controller queues, PM device timing, and the knobs each logging
 * scheme exposes. The experiment harness mutates copies of the default
 * config to drive parameter sweeps (e.g., Fig. 15's log-buffer latency).
 */

#ifndef SILO_SIM_CONFIG_HH
#define SILO_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace silo
{

/**
 * Which atomic-durability design the memory system implements. The
 * values start at 1 and never change: gtest prints them into the names
 * of the scheme-parameterised tests.
 */
enum class SchemeKind
{
    Base = 1,   //!< flush undo+redo log + updated cacheline per store
    Fwb,        //!< hardware undo+redo with force-write-back (FWB)
    MorLog,     //!< morphable logging with on-chip merge buffer
    Lad,        //!< logless atomic durability (LAD)
    Silo,       //!< this paper: speculative "log as data" logging
    SwEadr,     //!< software WAL on an eADR (persistent-cache) machine
};

/** @return short display name used in report tables. */
inline const char *
schemeName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::Base: return "Base";
      case SchemeKind::Fwb: return "FWB";
      case SchemeKind::MorLog: return "MorLog";
      case SchemeKind::Lad: return "LAD";
      case SchemeKind::Silo: return "Silo";
      case SchemeKind::SwEadr: return "SW-eADR";
    }
    panic("unknown scheme kind");
}

/** All six durability designs, in the paper's comparison order. */
inline constexpr SchemeKind allSchemes[] = {
    SchemeKind::Base, SchemeKind::Fwb,  SchemeKind::MorLog,
    SchemeKind::Lad,  SchemeKind::Silo, SchemeKind::SwEadr,
};

/** Parse a schemeName() back to its kind; fatal() if unknown. */
inline SchemeKind
schemeFromName(const std::string &name)
{
    for (SchemeKind kind : allSchemes) {
        if (name == schemeName(kind))
            return kind;
    }
    fatal("unknown scheme: " + name);
}

/**
 * Deliberately seeded durability bugs (the checker's mutation harness).
 *
 * Each mutant breaks exactly one ordering/accounting rule of one scheme
 * in a way end-state tests can miss; the persistency checker must flag
 * every one with a specific violation kind (tests/check). Production
 * runs keep None.
 */
enum class MutationKind
{
    None,
    DropUndoLog,        //!< Base: never write the per-store log record
    ReorderLogData,     //!< Base: flush the cacheline before its log
    SkipCommitMarker,   //!< Base: Tx_end completes without the marker
    DropHeldRelease,    //!< LAD: commit never releases held MC entries
    StaleFlushBit,      //!< Silo: flush-bits matched on a stale line
    SkipCrashUndoFlush, //!< Silo: battery drops uncommitted undo logs
    DoubleInPlace,      //!< Silo: in-place update ignores flush-bits
};

/** @return stable kebab-case name of a seeded mutation. */
inline const char *
mutationName(MutationKind kind)
{
    switch (kind) {
      case MutationKind::None: return "none";
      case MutationKind::DropUndoLog: return "drop-undo-log";
      case MutationKind::ReorderLogData: return "reorder-log-data";
      case MutationKind::SkipCommitMarker: return "skip-commit-marker";
      case MutationKind::DropHeldRelease: return "drop-held-release";
      case MutationKind::StaleFlushBit: return "stale-flush-bit";
      case MutationKind::SkipCrashUndoFlush:
        return "skip-crash-undo-flush";
      case MutationKind::DoubleInPlace: return "double-in-place";
    }
    panic("unknown mutation kind");
}

/** All seeded mutations (without None), for the fuzzer's bug harness. */
inline constexpr MutationKind allMutations[] = {
    MutationKind::DropUndoLog,        MutationKind::ReorderLogData,
    MutationKind::SkipCommitMarker,   MutationKind::DropHeldRelease,
    MutationKind::StaleFlushBit,      MutationKind::SkipCrashUndoFlush,
    MutationKind::DoubleInPlace,
};

/** Parse a mutationName() back to its kind; fatal() if unknown. */
inline MutationKind
mutationFromName(const std::string &name)
{
    if (name == mutationName(MutationKind::None))
        return MutationKind::None;
    for (MutationKind kind : allMutations) {
        if (name == mutationName(kind))
            return kind;
    }
    fatal("unknown mutation: " + name);
}

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes;
    unsigned ways;
    Cycles latency;
};

/** Full system configuration. */
struct SimConfig
{
    // --- Processor (Table II) ---
    unsigned numCores = 8;

    CacheConfig l1d{32 * 1024, 8, 4};
    CacheConfig l2{256 * 1024, 8, 12};
    CacheConfig l3{8 * 1024 * 1024, 16, 28};

    // --- Memory controller (Table II) ---
    /** Memory controllers; >1 exercises §III-D's multi-MC routing. */
    unsigned numMemControllers = 1;
    unsigned wpqEntries = 64;        //!< write pending queue, ADR domain

    // --- Persistent memory (Table II; timing in nvm/pm_device.hh) ---
    unsigned pmBanks = 64;
    unsigned onPmBufferLines = 32;               //!< 256 B lines (§III-E)

    // --- Logging scheme ---
    SchemeKind scheme = SchemeKind::Silo;

    /** Silo / MorLog: per-core on-chip log buffer capacity (entries). */
    unsigned logBufferEntries = 20;
    /** Silo: log buffer access latency in cycles (Fig. 15 sweep). */
    Cycles logBufferLatency = 8;
    /** @name Silo ablation switches (DESIGN.md design choices)
     *  Disable individual reduction mechanisms to quantify their
     *  contribution (the ablation bench sweeps these). */
    /// @{
    bool siloLogIgnorance = true;   //!< §III-C silent-store filter
    bool siloLogMerging = true;     //!< §III-C comparator merging
    bool siloFlushBit = true;       //!< §III-D eviction flush-bits
    /// @}
    /** FWB: force-write-back interval in cycles (§VI-A). */
    Cycles fwbIntervalCycles = 3'000'000;
    /** @name Log lifecycle (segmented log region, DESIGN.md §4j)
     *  Off by default: the log region behaves exactly as before
     *  (monotonic append, truncation only at scheme-defined points) and
     *  no lifecycle machinery is constructed, keeping existing results
     *  byte-identical. */
    /// @{
    /** Segment the per-thread log areas and run the cleaner/checkpoint
     *  lifecycle with admission backpressure. */
    bool logSegmented = false;
    /** Segment size in bytes (multiple of the 256 B on-PM line). */
    std::uint64_t logSegmentBytes = 64 * 1024;
    /** Physical ring capacity: max non-clean segments per thread. */
    unsigned logSegmentsPerThread = 8;
    /** Cleaner target: keep at least this many clean segments free for
     *  migration output; admission stalls below it. */
    unsigned logCleanReserve = 2;
    /** Appended log bytes between checkpoints (per thread). */
    std::uint64_t logCheckpointBytes = 256 * 1024;
    /** Lifecycle tick period (cleaner/checkpoint trigger polling). */
    Cycles logLifecycleTickCycles = 2048;
    /** Pacing: cycles between cleaner record migrations. */
    Cycles logCleanPerRecordCycles = 32;
    /** Pacing: cycles between checkpoint word flushes. */
    Cycles logCheckpointPerWordCycles = 32;
    /// @}
    /** LAD: MC slots for buffered uncommitted cachelines. */
    unsigned ladMcEntries = 64;

    // --- Observability (src/sim/tracer.hh) ---
    /**
     * Write a Chrome trace-event / Perfetto JSON timeline of this run
     * to the given path; empty disables tracing entirely (no tracer is
     * allocated and hot-path sites reduce to one null-pointer test).
     * Driven by SILO_TRACE / SILO_TRACE_CELL in the harness.
     */
    std::string tracePath;
    /** Interval-sampler period in simulated ns (counter tracks). */
    double traceSampleNs = 100.0;

    // --- Persistency checker (src/check) ---
    /**
     * Shadow the memory system with the durability-invariant checker.
     * Off by default: no checker object exists and every hook site is a
     * single null-pointer test.
     */
    bool checker = false;
    /** Seeded-bug harness; only meaningful with checker = true. */
    MutationKind mutation = MutationKind::None;

    /** Sanity-check the configuration; fatal() on nonsense values. */
    void
    validate() const
    {
        if (numCores == 0 || numCores > 255)
            fatal("numCores must be in [1, 255]");
        if (wpqEntries == 0)
            fatal("wpqEntries must be positive");
        if (logBufferEntries == 0)
            fatal("logBufferEntries must be positive");
        if (!(traceSampleNs > 0.0))
            fatal("traceSampleNs must be positive");
        if (logSegmented) {
            if (logSegmentBytes == 0 ||
                logSegmentBytes % pmBufferLineBytes != 0) {
                fatal("logSegmentBytes must be a positive multiple of "
                      "the 256B on-PM buffer line");
            }
            if (logSegmentsPerThread < 2)
                fatal("logSegmentsPerThread must be at least 2");
            if (logCleanReserve == 0 ||
                logCleanReserve >= logSegmentsPerThread) {
                fatal("logCleanReserve must be in "
                      "[1, logSegmentsPerThread)");
            }
            if (logCheckpointBytes == 0)
                fatal("logCheckpointBytes must be positive");
            if (logLifecycleTickCycles == 0)
                fatal("logLifecycleTickCycles must be positive");
        }
    }
};

} // namespace silo

#endif // SILO_SIM_CONFIG_HH
