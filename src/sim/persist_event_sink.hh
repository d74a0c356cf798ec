/**
 * @file
 * The persistency-event observer interface.
 *
 * The replay cores, memory controller, log region, log lifecycle and
 * Silo report durability-relevant events (transaction boundaries,
 * domain transitions, and Silo's flush-bit claims) through this
 * interface so the persistency checker (src/check) can follow the
 * whole machine without any of those components depending on it. The
 * interface lives in the sim layer — the bottom of the module DAG
 * (DESIGN.md §4g) — precisely so every producer below src/check can
 * include it. Every hook has an empty default body and every producer
 * guards its sink pointer, so a disabled checker costs one null check
 * per event.
 *
 * Domain model (§II / §III of the paper): a word moves
 *   volatile cache -> ADR WPQ -> on-PM buffer -> media,
 * and becomes durable at WPQ acceptance (the ADR persist point). Log
 * records become durable earlier, when they enter the MC's ADR log
 * path (mc::MemController::writeLog()); they wait there while the WPQ
 * is full. No hook reports that wait, nor what Silo's log buffer or
 * MorLog's merge buffer holds: all of it is part of the
 * PersistentDomain, which the checker reads directly. No hook reports
 * media programming either, a delayed replay of writes the WPQ already
 * accepted, so the PM device has no sink.
 */

#ifndef SILO_SIM_PERSIST_EVENT_SINK_HH
#define SILO_SIM_PERSIST_EVENT_SINK_HH

#include <array>
#include <cstdint>

#include "sim/log_record.hh"
#include "sim/types.hh"

namespace silo::log
{

/** Why the log region dropped a durable record. */
enum class LogDropReason : std::uint8_t
{
    Migrated,     //!< cleaner copied it to a new address first
    Checkpointed, //!< checkpoint made it redundant (committed + flushed)
    Reclaimed,    //!< segment reclaim dropped a leftover record
    BelowHead,    //!< persisted below its thread's head, or passed by it
};

/** Observer of durability-relevant memory-system events. */
class PersistEventSink
{
  public:
    virtual ~PersistEventSink() = default;

    /** @name Transactions (replay cores) */
    /// @{

    /** @p core executed Tx_begin of transaction @p txid. */
    virtual void onTxBegin(unsigned core, std::uint16_t txid)
    {
        (void)core;
        (void)txid;
    }

    /** A store retired in @p core 's L1D; the scheme sees it next. */
    virtual void onStore(unsigned core, Addr addr, Word old_val,
                         Word new_val)
    {
        (void)core;
        (void)addr;
        (void)old_val;
        (void)new_val;
    }

    /** @p core executed Tx_end; the scheme now works to commit. */
    virtual void onTxEndRequested(unsigned core) { (void)core; }

    /** The scheme completed @p core 's Tx_end: the tx is durable. */
    virtual void onTxEndComplete(unsigned core) { (void)core; }
    /// @}

    /** @name ADR domain (memory controller WPQ) */
    /// @{

    /**
     * A full 64 B line was accepted into the WPQ (durable unless
     * @p held — LAD's revocable buffered entries).
     */
    virtual void
    onWpqAcceptLine(Addr line_addr,
                    const std::array<Word, wordsPerLine> &values,
                    bool held)
    {
        (void)line_addr;
        (void)values;
        (void)held;
    }

    /** An 8 B word write was accepted (Silo's in-place update path). */
    virtual void onWpqAcceptWord(Addr word_addr, Word value)
    {
        (void)word_addr;
        (void)value;
    }

    /** A held (LAD) entry became drainable. */
    virtual void onHeldRelease(Addr line_addr) { (void)line_addr; }

    /** A held entry was discarded by the crash drain (revocation). */
    virtual void onHeldDiscard(Addr line_addr) { (void)line_addr; }
    /// @}

    /** @name Log region */
    /// @{

    /** A log record became durable at @p rec_addr. */
    virtual void onLogPersist(Addr rec_addr, const LogRecord &record)
    {
        (void)rec_addr;
        (void)record;
    }

    /** Thread @p tid 's log was truncated: its area holds no record. */
    virtual void onLogTruncate(unsigned tid) { (void)tid; }

    /**
     * The log region dropped the durable record at @p rec_addr: the
     * segmented-log lifecycle did, or the record lies below its
     * thread's head (src/check invariant 6: no live record may be
     * reclaimed — a Migrated drop needs another durable copy of the
     * same LSN, any other drop needs the record to be dead).
     */
    virtual void onLogRecordDrop(Addr rec_addr, const LogRecord &record,
                                 LogDropReason reason)
    {
        (void)rec_addr;
        (void)record;
        (void)reason;
    }

    /**
     * The checkpoint flushed @p value for @p word_addr into the
     * persistent domain (src/check invariant 7: each flushed value must
     * equal the committed image).
     */
    virtual void onCheckpointWord(Addr word_addr, Word value)
    {
        (void)word_addr;
        (void)value;
    }
    /// @}

    /** @name Scheme claims */
    /// @{

    /** Silo set an entry's flush-bit (claims ADR has @p new_data);
     *  the domain does not record the claim (src/check invariant 3). */
    virtual void noteFlushBit(unsigned core, std::uint16_t txid,
                              Addr addr, Word new_data)
    {
        (void)core;
        (void)txid;
        (void)addr;
        (void)new_data;
    }
    /// @}
};

} // namespace silo::log

#endif // SILO_SIM_PERSIST_EVENT_SINK_HH
