/**
 * @file
 * The segmented log lifecycle engine (DESIGN.md §4j).
 *
 * When SimConfig::logSegmented is on, each thread's log area is
 * divided into fixed-size segments that cycle through
 *   [clean] -> [active] -> [cooling] -> [clean]
 * where the active segment is the one the tail appends into, cooling
 * segments are older segments that still hold records, and clean
 * segments are reclaimed ring capacity. Three mechanisms keep the ring
 * from filling:
 *
 *  - the CLEANER migrates live records out of the oldest cooling
 *    segment (preserving their LSN; the copy is durable via the MC log
 *    path before the original is dropped) and reclaims it;
 *  - the CHECKPOINT flushes, per word, the latest committed value
 *    carried by the log into the persistent domain, then drops every
 *    record of the checkpointed committed transactions and a batch of
 *    now-empty segments (a record is committed unless its txid is the
 *    one after its thread's last committed txid: the replay core's open
 *    transaction, also past the 16-bit txid wrap);
 *  - ADMISSION BACKPRESSURE defers log-append completion callbacks
 *    while clean capacity is below the reserve, surfacing as
 *    commit/store stalls in the existing Distribution stats plus this
 *    engine's own "log_lifecycle" stat group.
 *
 * Durability is never weakened by backpressure: records are allocated
 * and enter the MC's ADR log path immediately (so invariant 1's
 * in-flight coverage holds exactly as in the unsegmented log); only
 * the completion visible to the scheme is deferred. The engine's own
 * migration copies and checkpoint markers take the same path
 * (mc::MemController::writeLog()), so the MC persists them at a crash
 * and the engine has no crash hook. A stalled append that waits out
 * the overrun window is released anyway (counted in ring_overruns) so
 * adversarial programs — e.g. one giant uncommitted transaction —
 * cannot livelock the simulation; the ring bound is a capacity model,
 * not a correctness invariant.
 */

#ifndef SILO_LOG_LOG_LIFECYCLE_HH
#define SILO_LOG_LOG_LIFECYCLE_HH

#include <cstdint>
#include <vector>

#include "mc/mc_router.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/log_region.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace silo::log
{

/** Lifecycle statistics ("log_lifecycle" group; registered only when
 *  segmentation is on, so existing stats exports stay byte-identical). */
struct LifecycleStats
{
    stats::StatGroup group{"log_lifecycle"};
    /** Segments returned to the clean state. */
    stats::Scalar segmentsReclaimed{group, "segments_reclaimed"};
    /** Live records the cleaner copied out of cooling segments. */
    stats::Scalar recordsMigrated{group, "records_migrated"};
    /** Dead records dropped by the cleaner or a checkpoint. */
    stats::Scalar recordsDropped{group, "records_dropped"};
    stats::Scalar checkpoints{group, "checkpoints"};
    stats::Scalar checkpointWords{group, "checkpoint_words"};
    /** Log appends deferred by capacity backpressure. */
    stats::Scalar admissionStalls{group, "admission_stalls"};
    /** Stalled appends force-released after the overrun window. */
    stats::Scalar ringOverruns{group, "ring_overruns"};
    /** Cycles an append completion waited for clean capacity. */
    stats::Distribution admissionStallCycles{group,
        "admission_stall_cycles", 1024, 32};
};

/** Per-thread segment cleaner + checkpointer + admission control. */
class LogLifecycle
{
  public:
    LogLifecycle(EventQueue &eq, const SimConfig &cfg, mc::McRouter &mc,
                 LogRegionStore &logs, PersistEventSink *checker);

    /** @name Hooks (appends from LoggingScheme::appendLog,
     *  commits from the replay cores) */
    /// @{

    /** A record of @p bytes was appended to @p tid 's log area
     *  (checkpoint trigger accounting). */
    void noteAppend(unsigned tid, unsigned bytes);

    /**
     * Admission backpressure: run @p done now if thread @p tid has
     * clean capacity above the reserve, else defer it until the
     * cleaner/checkpoint frees a segment (or the overrun window
     * expires). Call AFTER the record is durable — this gates the
     * completion the scheme sees, never the durability of the record.
     */
    void gate(unsigned tid, Callback done);

    /** A transaction of @p core committed (its records became dead for
     *  the cleaner; redo data stays pinned until checkpointed). */
    void onTxCommitted(unsigned core, std::uint16_t txid);
    /// @}

    /** @name Observability */
    /// @{
    const LifecycleStats &lifecycleStats() const { return _stats; }
    stats::StatGroup &statGroup() { return _stats.group; }
    /** Deferred append completions of @p tid (test hook). */
    std::size_t gatedCount(unsigned tid) const
    {
        return _threads.at(tid).gated.size();
    }
    /// @}

  private:
    struct GatedDone
    {
        Tick since = 0;
        Callback done;
    };

    /** One word the running checkpoint still has to flush. */
    struct CkptWord
    {
        Addr addr = 0;
        Word value = 0;
    };

    struct ThreadState
    {
        /** Deferred append completions, in arrival order. */
        Ring<GatedDone> gated;
        std::uint64_t appendedSinceCkpt = 0;
        /** A cleaner pass or checkpoint is in progress. */
        bool busy = false;
        /** Records of the segment being cleaned (snapshot). */
        std::vector<std::pair<Addr, LogRecord>> cleanRecords;
        std::size_t cleanIdx = 0;
        std::uint64_t cleanSegment = 0;
        /** The record being migrated: its old and new addresses. */
        Addr migrateFrom = 0;
        Addr migrateTo = 0;
        Tick opStart = 0;
        /** Checkpoint work: words to flush, then records to drop. */
        std::vector<CkptWord> ckptWords;
        std::size_t ckptIdx = 0;
        std::vector<Addr> ckptDrops;
        /** Txid of the thread's last committed transaction. */
        std::uint16_t lastCommitted = 0;
    };

    /** Clean segments left in @p tid 's physical ring (may go negative
     *  transiently: allocation is immediate, only completion stalls). */
    std::int64_t freeSegments(unsigned tid) const;

    /** True when append completions of @p tid must stall. */
    bool capacityLow(unsigned tid) const;

    void scheduleTick();
    void tick();

    void maybeStart(unsigned tid);
    void startClean(unsigned tid);
    void cleanStep(unsigned tid);
    void migrate(unsigned tid, Addr old_addr, const LogRecord &rec);
    void finishClean(unsigned tid);

    void startCheckpoint(unsigned tid);
    void ckptStep(unsigned tid);
    void finishCheckpoint(unsigned tid);

    /**
     * Run @p tid 's deferred completions in order while it has clean
     * capacity, and any that waited out the overrun window.
     */
    void releaseGated(unsigned tid);

    /** Has the transaction that wrote @p rec committed? */
    bool committed(const LogRecord &rec) const;

    /** Dead for the CLEANER: droppable without a checkpoint flush. */
    bool cleanerDead(const LogRecord &rec) const;

    EventQueue &_eq;
    const SimConfig &_cfg;
    mc::McRouter &_mc;
    LogRegionStore &_logs;
    PersistEventSink *_checker;

    std::vector<ThreadState> _threads;

    LifecycleStats _stats;
    /** Force-release window for stalled completions, in cycles. */
    Cycles _overrunCycles = 0;
};

} // namespace silo::log

#endif // SILO_LOG_LOG_LIFECYCLE_HH
