/**
 * @file
 * The hardware-logging scheme interface.
 *
 * A scheme plugs into the memory system at the points the paper's
 * designs differ: transaction boundaries, completed stores (where the
 * log generator captures old+new data) and commit gating. The protocol
 * every scheme shares lives here: the per-core txid and commit point
 * and the log-append path (allocate, admission gate, hand-off to the
 * memory controller's ADR log path, which owns the WPQ wait and the
 * crash flush of the records still waiting). Recovery is one routine
 * for all schemes (walRecover(), log/wal_recovery.hh): the records
 * they write describe themselves.
 *
 * What a scheme keeps across power loss lives in the persistent domain
 * (sim/persistent_domain.hh), which the scheme uses in place: the log
 * region, each core's durable commit-marker bit, and the scheme's own
 * battery-backed state. So a scheme has no crash method: its
 * battery-backed flush is a static function of that declared state,
 * the log region and the sink the region reports to
 * (SiloScheme::batteryFlush(), MorLogScheme::batteryFlush(),
 * SwEadrScheme::batteryFlush()), which harness::crashDomain() runs on
 * the live domain or on a copy.
 *
 * Concrete schemes: BaseScheme, FwbScheme, MorLogScheme, LadScheme
 * (§VI-A's comparison points), SwEadrScheme (the §II-C ablation) and
 * SiloScheme (§III).
 */

#ifndef SILO_LOG_LOGGING_SCHEME_HH
#define SILO_LOG_LOGGING_SCHEME_HH

#include <memory>
#include <ostream>
#include <vector>

#include "log/log_lifecycle.hh"
#include "mc/mc_router.hh"
#include "mem/hierarchy.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/log_region.hh"
#include "sim/persist_event_sink.hh"
#include "sim/persistent_domain.hh"
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
    /** The persistent domain: the log region, the commit markers and
     *  the scheme's battery-backed state. */
    PersistentDomain &domain;
    /** The architectural value store (the replay engine's view);
     *  software-logging schemes store log content through the cache
     *  like ordinary data, so they write it too. */
    WordStore &values;
    /** Persistency-event sink (the checker), or nullptr when
     *  SimConfig::checker is off. Silo reports its flush-bit claims
     *  through it; the checker reads the battery/ADR structures
     *  themselves from the domain. The abstract interface keeps the
     *  scheme layer below src/check in the module DAG (DESIGN.md
     *  §4g). */
    PersistEventSink *checker = nullptr;
    /** Segmented-log lifecycle engine (DESIGN.md §4j), or nullptr when
     *  SimConfig::logSegmented is off. appendLog() reports appends to
     *  it and admitted() routes completions through its admission
     *  gate. */
    LogLifecycle *lifecycle = nullptr;
};

/** Common per-scheme statistics. */
struct SchemeStats
{
    stats::StatGroup group{"scheme"};
    stats::Scalar logWrites{group, "log_writes"};
    stats::Scalar logBytes{group, "log_bytes"};
    stats::Scalar crashFlushBytes{group, "crash_flush_bytes"};
};

/**
 * Battery flush at a crash: write @p record straight to its thread's
 * log in @p logs. @return its size in bytes.
 */
inline unsigned
persistAtCrash(LogRegionStore &logs, const LogRecord &record)
{
    Addr addr = logs.allocate(record.tid, record.sizeBytes());
    logs.persist(addr, record);
    return record.sizeBytes();
}

/** Abstract atomic-durability mechanism. */
class LoggingScheme
{
  public:
    explicit LoggingScheme(SchemeContext ctx)
        : _ctx(std::move(ctx)), _txids(_ctx.cfg.numCores)
    {
    }
    virtual ~LoggingScheme() = default;

    /** Display name matching the paper's figures. */
    virtual const char *name() const = 0;

    /**
     * A core executed Tx_begin: its new, not yet committed transaction
     * is @p txid (Fig. 6's 16-bit field) until the core's next
     * Tx_begin. The scheme's beginTx() hook runs last.
     */
    void
    txBegin(unsigned core, std::uint16_t txid)
    {
        _txids[core] = txid;
        _ctx.domain.commitMarkers[core] = false;
        beginTx(core);
    }

    /**
     * A store completed in the core's L1D. The log generator sees the
     * in-flight new data and the old data read during tag match
     * (§III-B). Call @p done when the core may proceed — schemes with
     * per-store persist ordering or full buffers defer it.
     */
    virtual void
    store(unsigned core, Addr addr, Word old_val, Word new_val,
          Callback done)
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
    virtual void txEnd(unsigned core, Callback done)
    {
        (void)core;
        done();
    }

    /**
     * Copy into @p domain the battery-backed state this scheme keeps
     * outside it, as a crash now finds it. Only SW-eADR has such state:
     * its persistent caches are the simulator's volatile hierarchy.
     */
    virtual void captureAtCrash(PersistentDomain &domain) const
    {
        (void)domain;
    }

    /** Count @p bytes flushed by the battery at the crash. */
    void noteCrashFlush(std::uint64_t bytes)
    {
        _stats.crashFlushBytes += bytes;
    }

    /**
     * @return true if @p core 's latest transaction must be treated as
     * committed by recovery although its Tx_end has not completed (the
     * crash oracle's question): its commit marker entered the
     * persistent domain, so recovery replays it. Silo and LAD write no
     * marker; they complete Tx_end in the same event as their commit
     * point, so they have no such window.
     */
    bool lastTxCommittedAtCrash(unsigned core) const
    {
        return _ctx.domain.commitMarkers[core];
    }

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
    /** Scheme hook: @p core began transaction txidOf(core). */
    virtual void beginTx(unsigned core) { (void)core; }

    /** The txid of @p core 's latest Tx_begin. */
    std::uint16_t txidOf(unsigned core) const { return _txids[core]; }

    /** The commit marker of @p core 's latest transaction. */
    LogRecord
    commitMarker(unsigned core) const
    {
        LogRecord marker;
        marker.kind = LogRecord::Kind::Commit;
        marker.tid = std::uint8_t(core);
        marker.txid = txidOf(core);
        return marker;
    }

    /**
     * Append @p record to thread @p tid 's log: allocate its address,
     * count it and report it to the lifecycle engine. The caller makes
     * it durable in the same event (persistLog() or a persistent
     * cache), so a commit marker commits the core's transaction here:
     * a crash from now on recovers it as committed.
     * @return the record's log address.
     */
    Addr
    appendLog(unsigned tid, const LogRecord &record)
    {
        Addr addr = _ctx.domain.logs.allocate(tid, record.sizeBytes());
        ++_stats.logWrites;
        _stats.logBytes += record.sizeBytes();
        if (_ctx.lifecycle)
            _ctx.lifecycle->noteAppend(tid, record.sizeBytes());
        if (record.kind == LogRecord::Kind::Commit)
            _ctx.domain.commitMarkers[tid] = true;
        return addr;
    }

    /**
     * @return @p done behind the segmented lifecycle's admission
     * backpressure, which holds the completion the scheme observes
     * (never the record's durability) while thread @p tid 's log is
     * full. A commit marker bypasses it: stalling a commit under a full
     * log is a self-deadlock (commits are what free log space:
     * truncation and cleaner deadness both hinge on them), and the
     * already-durable marker has committed the transaction.
     */
    Callback
    admitted(unsigned tid, const LogRecord &record, Callback done)
    {
        if (!_ctx.lifecycle || record.kind == LogRecord::Kind::Commit)
            return done;
        return park(ParkedDone{std::move(done), 0, tid, true});
    }

    /**
     * Hand the appended @p record to the MC's ADR log path, where it is
     * durable at once, and run @p done once a WPQ slot accepts it
     * (mc::MemController::writeLog()).
     */
    void
    persistLog(Addr addr, const LogRecord &record, Callback done)
    {
        if (_ctx.eq.tracer()) {
            done = park(
                ParkedDone{std::move(done), _ctx.eq.now(), 0, false});
        }
        _ctx.mc.writeLog(addr, record, std::move(done));
    }

    /** Append @p record and persist it via the MC, admission-gated. */
    void
    writeLogWithRetry(unsigned tid, const LogRecord &record,
                      Callback done)
    {
        Addr addr = appendLog(tid, record);
        persistLog(addr, record, admitted(tid, record, std::move(done)));
    }

    SchemeContext _ctx;
    SchemeStats _stats;

  private:
    /**
     * A log write's completion, parked until the WPQ accepts the
     * record: it then passes the lifecycle's admission gate
     * (admitted()) or closes a log-persist trace span (persistLog()).
     */
    struct ParkedDone
    {
        Callback done;
        Tick started = 0;   //!< trace: start of the log-persist span
        unsigned tid = 0;
        bool gated = false;
    };

    /** Park @p p ; @return the continuation that resumes it. */
    Callback
    park(ParkedDone p)
    {
        std::uint32_t idx = _parked.park(std::move(p));
        return [this, idx] { resume(idx); };
    }

    /** The record of the completion parked at @p idx was accepted. */
    void
    resume(std::uint32_t idx)
    {
        ParkedDone p = _parked.take(idx);
        if (p.gated) {
            _ctx.lifecycle->gate(p.tid, std::move(p.done));
            return;
        }
        if (trace::Tracer *tr = _ctx.eq.tracer()) {
            tr->completeSpan(tr->track("scheme", name()), "log-persist",
                             p.started, _ctx.eq.now());
        }
        p.done();
    }

    /** Per core: the txid of its latest Tx_begin. */
    std::vector<std::uint16_t> _txids;
    SlotTable<ParkedDone> _parked;
};

/** Instantiate the scheme selected by @p ctx.cfg.scheme. */
std::unique_ptr<LoggingScheme> makeScheme(SchemeContext ctx);

} // namespace silo::log

#endif // SILO_LOG_LOGGING_SCHEME_HH
