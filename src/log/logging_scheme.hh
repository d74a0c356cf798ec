/**
 * @file
 * The hardware-logging scheme interface.
 *
 * A scheme plugs into the memory system at the points the paper's
 * designs differ: transaction boundaries, completed stores (where the
 * log generator captures old+new data), commit gating, and the two
 * rare cases — crash (battery-backed selective flush) and recovery.
 *
 * Concrete schemes: BaseScheme, FwbScheme, MorLogScheme, LadScheme
 * (§VI-A's comparison points) and SiloScheme (§III).
 */

#ifndef SILO_LOG_LOGGING_SCHEME_HH
#define SILO_LOG_LOGGING_SCHEME_HH

#include <functional>
#include <map>
#include <memory>
#include <ostream>

#include "log/log_lifecycle.hh"
#include "mc/mc_router.hh"
#include "mem/hierarchy.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/log_region.hh"
#include "sim/persist_event_sink.hh"
#include "sim/tracer.hh"
#include "sim/word_store.hh"

namespace silo::log
{

/** Everything a scheme may touch, handed to it at construction. */
struct SchemeContext
{
    EventQueue &eq;
    const SimConfig &cfg;
    mc::McRouter &mc;
    mem::CacheHierarchy &hierarchy;
    LogRegionStore &logs;
    nvm::PmDevice &pm;
    /** Architectural value of a word (the replay engine's view). */
    std::function<Word(Addr)> valueOf;
    /** Write an architectural word (software-logging schemes store
     *  log content through the cache like ordinary data). */
    std::function<void(Addr, Word)> setValue;
    /** Persistency-event sink (the checker), or nullptr when
     *  SimConfig::checker is off. Schemes report battery/ADR-structure
     *  state through it (src/check invariant 1's on-chip coverage
     *  sources); the abstract interface keeps the scheme layer below
     *  src/check in the module DAG (DESIGN.md §4g). */
    PersistEventSink *checker = nullptr;
    /** Segmented-log lifecycle engine (DESIGN.md §4j), or nullptr when
     *  SimConfig::logSegmented is off. writeLogWithRetry() reports
     *  appends to it and routes completions through its admission
     *  gate. */
    LogLifecycle *lifecycle = nullptr;
};

/** Common per-scheme statistics. */
struct SchemeStats
{
    stats::Scalar logWrites{"log_writes",
        "log records sent to the PM log region"};
    stats::Scalar logBytes{"log_bytes",
        "bytes of log records sent to the PM log region"};
    stats::Scalar commitStallCycles{"commit_stall_cycles",
        "cycles transactions waited at Tx_end"};
    stats::Scalar storeStallCycles{"store_stall_cycles",
        "cycles stores waited on the scheme"};
    stats::Scalar crashFlushBytes{"crash_flush_bytes",
        "bytes flushed by battery on a crash"};

    /** All of the above, for the structured stats export. */
    stats::StatGroup group{"scheme"};

    SchemeStats()
    {
        group.addScalar(logWrites);
        group.addScalar(logBytes);
        group.addScalar(commitStallCycles);
        group.addScalar(storeStallCycles);
        group.addScalar(crashFlushBytes);
    }
};

/** Abstract atomic-durability mechanism. */
class LoggingScheme
{
  public:
    explicit LoggingScheme(SchemeContext ctx) : _ctx(std::move(ctx)) {}
    virtual ~LoggingScheme() = default;

    /** Display name matching the paper's figures. */
    virtual const char *name() const = 0;

    /** A core executed Tx_begin. */
    virtual void txBegin(unsigned core, std::uint16_t txid)
    {
        (void)core;
        (void)txid;
    }

    /**
     * A store completed in the core's L1D. The log generator sees the
     * in-flight new data and the old data read during tag match
     * (§III-B). Call @p done when the core may proceed — schemes with
     * per-store persist ordering or full buffers defer it.
     */
    virtual void
    store(unsigned core, Addr addr, Word old_val, Word new_val,
          std::function<void()> done)
    {
        (void)core;
        (void)addr;
        (void)old_val;
        (void)new_val;
        done();
    }

    /**
     * A core executed Tx_end. Call @p done when the scheme's commit
     * requirements hold (the transaction is then durable).
     */
    virtual void txEnd(unsigned core, std::function<void()> done)
    {
        (void)core;
        done();
    }

    /**
     * System crash: the battery-backed flush. Runs after the event
     * loop stops and before the ADR drain; may write log records
     * directly into the log region (battery power, no timing).
     *
     * The default completes the in-flight log writes: a record handed
     * to writeLogWithRetry() lives in the memory controller's
     * ADR-domain log path while it waits for a WPQ slot, so it is
     * durable even if the crash interleaves with the retries.
     * Overrides must call flushInFlightLogs().
     */
    virtual void crash() { flushInFlightLogs(); }

    /**
     * @return true if @p core 's latest transaction must be treated as
     * committed by recovery (used by the crash oracle when a commit
     * was in flight at the crash instant).
     */
    virtual bool lastTxCommittedAtCrash(unsigned core) const
    {
        (void)core;
        return false;
    }

    /** Post-crash recovery: restore atomic durability in @p media. */
    virtual void recover(WordStore &media) { (void)media; }

    /**
     * @return true if a clean shutdown must DROP @p line instead of
     * writing it back: the line carries data of a still-open
     * transaction whose only revocation mechanism is discard (LAD's
     * held lines). A trace can end inside a transaction (litmus
     * `tx abort`), and flushing such a line at drainToMedia() would
     * push an unrevocable uncommitted value into the persistent
     * domain. Schemes whose uncommitted lines always have durable
     * undo coverage keep the default: write-back is safe, recovery
     * could always revoke it.
     */
    virtual bool dropAtShutdown(Addr line) const
    {
        (void)line;
        return false;
    }

    const SchemeStats &schemeStats() const { return _stats; }

    /**
     * Total entries currently buffered on-chip by the scheme (Silo /
     * MorLog log buffers); 0 for schemes without one. Sampled into the
     * "log_buffer_fill" counter track.
     */
    virtual unsigned logBufferFill() const { return 0; }

    /**
     * Scheme-specific statistics beyond SchemeStats (e.g. Silo's log
     * reduction counters), or nullptr. Registered under "scheme_extra"
     * in the stats export.
     */
    virtual const stats::StatGroup *extraStatGroup() const
    {
        return nullptr;
    }

  protected:
    /**
     * Persist @p record via the MC, retrying while the WPQ is full.
     * The record is tracked until accepted so a crash mid-retry still
     * finds it (it sits in the MC's ADR-domain log path).
     *
     * Under the segmented lifecycle the completion is held by its
     * admission backpressure unless @p record is a commit marker.
     * Stalling a commit under a full log is a self-deadlock (commits
     * are what free log space: truncation and cleaner deadness both
     * hinge on them), and deferring the scheme's commit bookkeeping
     * past the already-durable marker would let a crash in the window
     * diverge from recovery, which rightly treats a durable marker as
     * committed.
     */
    void
    writeLogWithRetry(unsigned tid, LogRecord record,
                      std::function<void()> done)
    {
        Addr addr = _ctx.logs.allocate(tid, record.sizeBytes());
        ++_stats.logWrites;
        _stats.logBytes += record.sizeBytes();
        if (_ctx.lifecycle) {
            // Allocation and the MC's ADR log path are never deferred
            // (durability first); backpressure only gates the
            // completion the scheme observes, after the record is
            // accepted.
            _ctx.lifecycle->noteAppend(tid, record.sizeBytes());
            if (record.kind != LogRecord::Kind::Commit) {
                done = [lc = _ctx.lifecycle, tid,
                        inner = std::move(done)]() mutable {
                    lc->gate(tid, std::move(inner));
                };
            }
        }
        _inFlightLogs[addr] = record;
        noteInFlightLog(addr, record);
        tryPersist(addr, record, _ctx.eq.now(), std::move(done));
    }

    /**
     * Tell the checker a record entered the MC's ADR log path (it is
     * durable from this point even though no WPQ slot accepted it yet).
     */
    void
    noteInFlightLog(Addr addr, const LogRecord &record)
    {
        if (_ctx.checker)
            _ctx.checker->onLogInFlight(addr, record);
    }

    /** Crash path: make every in-flight log record durable. */
    void
    flushInFlightLogs()
    {
        for (const auto &[addr, record] : _inFlightLogs)
            _ctx.logs.persist(addr, record);
        _inFlightLogs.clear();
    }

    SchemeContext _ctx;
    SchemeStats _stats;
    /** Allocated-but-unaccepted records (durable in the MC log path). */
    std::map<Addr, LogRecord> _inFlightLogs;

  private:
    void
    tryPersist(Addr addr, LogRecord record, Tick started,
               std::function<void()> done)
    {
        if (_ctx.mc.tryWriteLog(addr, record)) {
            if (auto *tr = _ctx.eq.tracer()) {
                tr->completeSpan(tr->track("scheme", name()),
                                 "log-persist", started, _ctx.eq.now());
            }
            _inFlightLogs.erase(addr);
            done();
            return;
        }
        _ctx.mc.requestWriteSlot(
            addr, [this, addr, record, started,
                   done = std::move(done)]() mutable {
                tryPersist(addr, record, started, std::move(done));
            });
    }
};

/** No durability mechanism: raw memory system (calibration runs). */
class NullScheme : public LoggingScheme
{
  public:
    using LoggingScheme::LoggingScheme;
    const char *name() const override { return "None"; }
};

/** Instantiate the scheme selected by @p ctx.cfg.scheme. */
std::unique_ptr<LoggingScheme> makeScheme(SchemeContext ctx);

} // namespace silo::log

#endif // SILO_LOG_LOGGING_SCHEME_HH
