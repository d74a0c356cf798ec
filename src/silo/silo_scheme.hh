/**
 * @file
 * Silo: speculative hardware logging with the "Log as Data" idea (§III).
 *
 * Per core, a small battery-backed log buffer in the memory controller
 * holds the undo+redo entries of the running transaction:
 *
 *  - The L1D log generator ignores silent stores (log ignorance) and
 *    the log controller merges same-word entries via the per-entry
 *    comparators (log merging, §III-C).
 *  - When the WPQ receives an evicted cacheline, matching entries'
 *    flush-bits are set — their new data need not be written again
 *    (§III-D).
 *  - Tx_end completes after an on-chip ACK round trip (a few cycles):
 *    no logs or cachelines are forced to PM. After commit the new data
 *    in the buffer in-place update the PM data region in the
 *    background, one word per buffer-access latency (§III-D/E).
 *  - Overflow evicts batches of undo logs (N = ⌊S/18⌋) to the per-
 *    thread log area and simultaneously writes the new data (§III-F).
 *  - On a crash, the battery selectively flushes undo logs of
 *    uncommitted transactions or redo logs + an ID tuple of committed
 *    ones (§III-G); recovery revokes or replays accordingly.
 *
 * The log buffers and the staged in-place updates are the battery
 * domain; they live in the persistent domain (PersistentDomain::silo)
 * and the crash flush, batteryFlush(), reads nothing else.
 */

#ifndef SILO_SILO_SILO_SCHEME_HH
#define SILO_SILO_SILO_SCHEME_HH

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "log/logging_scheme.hh"

namespace silo::silo_scheme
{

/** On-chip ACK round trip for Tx_end (§III-D, "several cycles"). */
constexpr Cycles commitAckCycles = 4;

/** Per-transaction log statistics behind Fig. 13. */
struct LogReductionStats
{
    stats::StatGroup group{"silo"};
    /** Log entries a transaction would produce without reduction. */
    stats::Average totalLogsPerTx{group, "total_logs"};
    /** Entries remaining after ignorance and merging. */
    stats::Average remainingLogsPerTx{group, "remaining_logs"};
    /** Silent stores not logged. */
    stats::Scalar ignored{group, "ignored"};
    /** Entries merged by the comparators. */
    stats::Scalar merged{group, "merged"};
    /** Entries whose flush-bit was set by a cacheline eviction. */
    stats::Scalar flushBitsSet{group, "flush_bits"};
    stats::Scalar overflows{group, "overflow_evictions"};
    /** Post-commit new-data words written to the data region. */
    stats::Scalar inPlaceUpdates{group, "in_place_updates"};
    std::uint64_t maxRemainingLogs = 0;
};

/** The Silo logging scheme. */
class SiloScheme : public log::LoggingScheme
{
  public:
    explicit SiloScheme(log::SchemeContext ctx);

    const char *name() const override { return "Silo"; }

    void store(unsigned core, Addr addr, Word old_val, Word new_val,
               Callback done) override;
    void txEnd(unsigned core, Callback done) override;

    /**
     * The battery-backed selective flush at a crash (§III-G), over the
     * per-core battery state @p cores: undo logs of uncommitted
     * entries, redo logs of committed ones not yet in place, and one
     * ID tuple per committed transaction with flushed redo logs, all
     * to @p logs; the buffers and stages empty. @p mutation plants
     * SkipCrashUndoFlush. @return the bytes flushed.
     */
    static std::uint64_t batteryFlush(std::vector<CoreBattery> &cores,
                                      log::LogRegionStore &logs,
                                      MutationKind mutation);

    const LogReductionStats &reductionStats() const
    {
        return _reduction;
    }

    /** Buffer occupancy of @p core (test hook). */
    std::size_t bufferOccupancy(unsigned core) const
    {
        return battery(core).buffer.size();
    }

    /** In-place updates @p core has staged, not yet accepted (test hook). */
    std::size_t stagedUpdates(unsigned core) const
    {
        return battery(core).staged.size();
    }

    unsigned
    logBufferFill() const override
    {
        unsigned total = 0;
        for (const auto &b : _ctx.domain.silo)
            total += unsigned(b.buffer.size());
        return total;
    }

    const stats::StatGroup *extraStatGroup() const override
    {
        return &_reduction.group;
    }

  protected:
    void beginTx(unsigned core) override;

  private:
    /** Volatile per-core state; the battery state is battery(core). */
    struct CoreState
    {
        Tick txStart = 0;   //!< trace: start of the speculate span
        /** Fig. 13 per-transaction counters. */
        std::uint64_t txTotalLogs = 0;
        std::uint64_t txAppends = 0;
        /** Tx_end's completion, waiting for the commit ACK. */
        Callback commitDone;
        Tick commitRequest = 0;   //!< trace: start of the validate span
    };

    /** An in-place update on its way into the WPQ. */
    struct InPlaceWrite
    {
        unsigned core = 0;
        Addr addr = 0;
        Word value = 0;   //!< the value issued
    };

    /**
     * @p core 's log buffer and staged in-place updates. Committed
     * entries leave the buffer at commit ("the entries in log buffer
     * are deallocated to serve the next transaction", §III-B) and
     * stage, still inside the controller's battery domain, until the
     * WPQ accepts their in-place update.
     */
    CoreBattery &battery(unsigned core)
    {
        return _ctx.domain.silo[core];
    }
    const CoreBattery &battery(unsigned core) const
    {
        return _ctx.domain.silo[core];
    }

    /** Overflow batch size N = ⌊S / 18⌋ (§III-F). */
    unsigned overflowBatch() const
    {
        return pmBufferLineBytes / undoLogEntryBytes;
    }

    /** Evict a batch of undo logs to the log region (§III-F). */
    void handleOverflow(unsigned core);

    /** Background in-place updates of a committed tx's new data. */
    void drainCommitted(unsigned core);

    /**
     * Stage @p value for @p addr in @p core 's battery domain, marked
     * @p committed. A word already staged is superseded in place rather
     * than staged a second time: two independently retrying writes to
     * the same word can be accepted out of order, letting an older
     * value land last and revert the word on media.
     * @return true if a new entry was staged (its issue is the
     * caller's), false if an issued one now carries the value.
     */
    bool stage(unsigned core, std::uint16_t txid, Addr addr, Word value,
               bool committed);

    /**
     * Stage a committed in-place update and, if it is new, schedule
     * its issue after @p delay.
     */
    void stageInPlace(unsigned core, std::uint16_t txid, Addr addr,
                      Word value, Cycles delay);

    /** Issue (or reissue) the staged update for @p addr, if any. */
    void issueInPlace(unsigned core, Addr addr);

    /** The WPQ accepted the in-place update parked at @p w. */
    void inPlaceAccepted(std::uint32_t w);

    /** The commit ACK of @p core 's transaction returned. */
    void commitAcked(unsigned core);

    /** The MC eviction hook: set flush-bits of matching entries. */
    void onCachelineEvicted(Addr line);

    /** Per-core scheme timeline (speculate/validate/persist spans). */
    trace::Tracer::TrackId coreTrack(unsigned core);

    std::vector<CoreState> _cores;
    SlotTable<InPlaceWrite> _inPlaceWrites;
    LogReductionStats _reduction;
};

} // namespace silo::silo_scheme

#endif // SILO_SILO_SILO_SCHEME_HH
