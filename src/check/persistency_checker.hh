/**
 * @file
 * The persistency checker: an online durability-invariant analysis
 * pass over the whole memory system.
 *
 * A word moves
 *   volatile cache -> ADR WPQ -> on-PM buffer -> media;
 * the checker observes it at its persist point, WPQ acceptance (the
 * buffer and the media replay accepted writes), reads what the ADR
 * domain and the battery-backed log structures hold from the
 * PersistentDomain, and validates the scheme-specific durability
 * invariants at store, WPQ-acceptance, commit, crash, and recovery
 * time:
 *
 *  1. log-before-data — no word carrying an uncommitted new value may
 *     enter the persistent domain (WPQ accept, LAD held release) unless
 *     a revoking undo record is durable first: in the PM log region, in
 *     the MC's ADR log path, or in a battery/ADR-backed scheme
 *     structure (Silo's log buffer, MorLog's MC buffer), the last two
 *     read from the PersistentDomain. LAD's held entries are exempt —
 *     they are revocable by discard.
 *  2. commit durability — when Tx_end completes, the scheme's commit
 *     precondition holds: WAL schemes (Base/FWB/MorLog/SW-eADR) have
 *     every changed word's log record plus the commit marker durable;
 *     LAD has every changed word's final value in the ADR domain and
 *     no entry of the transaction still held; Silo has every changed
 *     word in battery custody now (its log buffer entry or its final
 *     value staged), flush-bit-covered, or its final value in the ADR
 *     domain.
 *  3. flush-bit accounting — Silo may set an entry's flush-bit only
 *     when the WPQ actually accepted an eviction carrying that word's
 *     current new data, and must not write the word in-place again
 *     afterwards (double persist).
 *  4. crash closure — after crash + recovery, the media image must
 *     equal the checker's own oracle: initial values plus exactly the
 *     stores of every durably committed transaction.
 *  5. (retired) torn writes — a media write names its words by the
 *     bits of one on-PM buffer line's 32-bit wordMask, so it cannot
 *     straddle the line (a static_assert in sim/persistent_domain.hh).
 *  6. no live record reclaimed — the log region may drop a durable
 *     record (segmented-log lifecycle, or below its thread's head) only
 *     when it is dead: a migration drop needs a second durable copy of
 *     the same LSN, any other drop needs the owning transaction
 *     committed and, for redo-bearing records, the record superseded
 *     by a later committed value or the word's committed value
 *     recoverable without it — durable in the ADR domain, or replaced
 *     there by a value of the word's open transaction whose
 *     pre-transaction value is the committed one and whose undo is
 *     durable (recovery revokes it to that value).
 *  7. checkpoint image — every word value the checkpoint flushes into
 *     the persistent domain must be a value that was actually committed
 *     for that word (or its initial value). A flush may be stale by the
 *     commits that landed while the checkpoint was in flight — the
 *     newer records survive in the log and recovery replays them over
 *     the stale flush (invariant 6 pins them until their value is
 *     durable) — but it must never inject an uncommitted value.
 *
 * Violations are collected (not fatal) with tick + core + tx + address
 * provenance; tests and the check_all runner inspect them.
 *
 * Transaction state is per core: a replay core begins a transaction
 * only after the previous Tx_end completed, so every transaction of a
 * core but its latest has committed, and only the latest is shadowed.
 * That stays right past the 16-bit txid wrap, where one txid names two
 * instances.
 *
 * The checker is a copyable value that reaches nothing of the machine
 * but the event queue's clock, which stopClock() cuts, and the
 * PersistentDomain it observes, which it reads and never mirrors: a
 * word's ADR value (mc::adrValue()), undo data in the MCs' ADR log
 * paths and in Silo's and MorLog's buffers, Silo's staged updates
 * and, after recovery, the media and commit markers. A crash sweep
 * copies it with the persistent domain after each event, and
 * onCrashBegin() binds the copy to the domain's copy, so the crash
 * hooks (onCrashBegin() ... onRecoveryComplete()) and every sink event
 * the crash raises run on the copy, observing the domain's copy
 * (harness::sweepCrashes()).
 */

#ifndef SILO_CHECK_PERSISTENCY_CHECKER_HH
#define SILO_CHECK_PERSISTENCY_CHECKER_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/persist_event_sink.hh"
#include "sim/persistent_domain.hh"
#include "sim/word_store.hh"

namespace silo::check
{

/** The invariant a violation breaks. */
enum class ViolationKind
{
    LogBeforeData,      //!< uncommitted data durable before its undo
    CommitNotDurable,   //!< Tx_end completed without its precondition
    HeldReleaseOrdering,//!< LAD held entry mishandled around commit
    FlushBitAccounting, //!< flush-bit set without a matching eviction
    DoublePersist,      //!< flush-bit-covered word written again
    CrashClosure,       //!< recovered image differs from the oracle
    LiveRecordReclaimed,//!< lifecycle dropped a still-needed record
    CheckpointImage,    //!< checkpoint flushed a non-committed value
};

/**
 * @return short kebab-case name of a violation kind.
 *
 * These names are a STABLE machine-readable encoding: committed litmus
 * fixtures (tests/check/litmus/) and the fuzzer's shrink logs match on
 * them, so renaming one is a format break, not a cosmetic change.
 */
const char *violationName(ViolationKind kind);

/** Parse a violationName() back to its kind; fatal() if unknown. */
ViolationKind violationKindFromName(const std::string &name);

/** One detected invariant violation, with provenance. */
struct Violation
{
    ViolationKind kind;
    Tick tick = 0;          //!< simulated time of detection
    unsigned core = 0;      //!< owning core (or 0 if unknown)
    std::uint16_t txid = 0; //!< owning transaction (or 0 if unknown)
    Addr addr = 0;          //!< word or line address involved
    std::string detail;     //!< human-readable description
    /**
     * Event index the run's crash was injected at; 0 = no injected
     * crash. The checker itself cannot know this — the crash harness
     * (src/fuzz, bench/check_all) stamps it before serializing.
     */
    std::uint64_t crashIndex = 0;

    /**
     * One-line JSON object: {"kind","tick","core","txid","addr",
     * "crash_index","detail"} with addr as a "0x..." hex string. The
     * field set and spelling are stable — the shrinker, check_all and
     * the fixture files all consume it.
     */
    std::string toJson() const;
};

/** Event counters (observability + tests). */
struct CheckerCounters
{
    std::uint64_t stores = 0;
    std::uint64_t wpqLineAccepts = 0;
    std::uint64_t wpqWordAccepts = 0;
    std::uint64_t logPersists = 0;
    std::uint64_t commits = 0;
    std::uint64_t wordsCheckedAtRecovery = 0;
    std::uint64_t logRecordDrops = 0;
};

/** Online durability-invariant checker (see file header). */
class PersistencyChecker : public log::PersistEventSink
{
  public:
    /** Observe @p domain, the machine's, on @p eq 's clock. */
    PersistencyChecker(const SimConfig &cfg, const EventQueue &eq,
                       const PersistentDomain &domain);

    /** @name Transaction events (replay cores) */
    /// @{
    void onTxBegin(unsigned core, std::uint16_t txid) override;
    void onStore(unsigned core, Addr addr, Word old_val,
                 Word new_val) override;
    void onTxEndRequested(unsigned core) override;
    void onTxEndComplete(unsigned core) override;
    /// @}

    /** @name Crash and recovery (harness::crashDomain/recoverDomain) */
    /// @{
    /**
     * The crash of @p domain began: runs before any battery or ADR
     * flush. From now on the checker observes @p domain (a crash copy
     * of the one it was built with, or that one), and time stops
     * (stopClock()).
     */
    void
    onCrashBegin(const PersistentDomain &domain)
    {
        _domain = &domain;
        stopClock();
    }
    /**
     * Recovery finished: validate the observed domain's media against
     * the oracle, committing each core's last transaction if its
     * commit marker is durable.
     */
    void onRecoveryComplete();
    /**
     * Stamp every later violation with the current tick and stop
     * reading the event queue: a copy taken for a crash must not
     * follow the live run.
     */
    void stopClock()
    {
        if (_eq) {
            _stoppedAt = _eq->now();
            _eq = nullptr;
        }
    }
    /// @}

    /** Silo set an entry's flush-bit (claims ADR has @p new_data). */
    void noteFlushBit(unsigned core, std::uint16_t txid, Addr addr,
                      Word new_data) override;

    /** @name PersistEventSink (memory-system events) */
    /// @{
    void onWpqAcceptLine(Addr line_addr,
                         const std::array<Word, wordsPerLine> &values,
                         bool held) override;
    void onWpqAcceptWord(Addr word_addr, Word value) override;
    void onHeldRelease(Addr line_addr) override;
    void onHeldDiscard(Addr line_addr) override;
    void onLogPersist(Addr rec_addr, const log::LogRecord &record) override;
    void onLogTruncate(unsigned tid) override;
    void onLogRecordDrop(Addr rec_addr, const log::LogRecord &record,
                         log::LogDropReason reason) override;
    void onCheckpointWord(Addr word_addr, Word value) override;
    /// @}

    /** @name Results */
    /// @{
    const std::vector<Violation> &violations() const
    {
        return _violations;
    }
    bool clean() const { return _violations.empty(); }
    /** Violations of one kind (mutation tests assert specific kinds). */
    std::size_t countOf(ViolationKind kind) const;
    const CheckerCounters &counters() const { return _counters; }
    /** Print every violation, one line each. */
    void report(std::ostream &os) const;
    /// @}

  private:
    /** Shadow of a core's latest transaction, reset at its Tx_begin
     *  (every earlier one has committed: see the file header). */
    struct TxShadow
    {
        unsigned core = 0;
        std::uint16_t txid = 0;
        bool open = false;          //!< begun, Tx_end not yet complete
        bool endRequested = false;  //!< Tx_end hook entered
        bool committed = false;     //!< Tx_end done() fired
        /** addr -> (value before the tx's first store, latest value). */
        std::map<Addr, std::pair<Word, Word>> writes;
        /** Words with a durable undo record (survives truncation). */
        std::set<Addr> loggedUndo;
        /** Its commit marker became durable (survives truncation). */
        bool marker = false;
    };

    TxShadow *openTxOf(unsigned core);

    /** The open transaction whose uncommitted value @p addr may hold,
     *  or nullptr: data arenas are thread-private (sim/address_map.hh),
     *  so only the arena owner's latest transaction writes the word. */
    const TxShadow *pendingWriter(Addr addr) const;

    /**
     * @return @p core 's latest transaction if its txid is @p txid;
     * nullptr if (core, txid) names an earlier, committed one.
     */
    TxShadow *latestTx(unsigned core, std::uint16_t txid);

    /** Has transaction @p txid of @p core committed? */
    bool committed(unsigned core, std::uint16_t txid) const
    {
        const TxShadow &tx = _txs.at(core);
        return tx.txid != txid || tx.committed;
    }

    /**
     * A word carrying @p value entered the ADR domain (WPQ accept).
     * Checks invariant 1 when the value is an uncommitted new value.
     */
    void checkDomainEntry(Addr addr, Word value);

    /**
     * @return true if an undo covering (tx, addr) is durable now: in
     * the log region, in an MC's ADR log path, or in battery/ADR
     * scheme custody (inSchemeBuffer()).
     */
    bool undoCoverage(const TxShadow &tx, Addr addr) const;

    /** Does Silo's log buffer or MorLog's merge buffer hold an entry,
     *  old data included, of (tx, addr)? */
    bool inSchemeBuffer(const TxShadow &tx, Addr addr) const;

    /**
     * Invariant 6: @return true if dropping this durable record cannot
     * lose recovery information (owning tx committed; redo-bearing
     * records additionally superseded, or the word's committed value
     * in the ADR domain or restored by an open transaction's durable
     * undo).
     */
    bool recordIsDead(const log::LogRecord &rec) const;

    /** Invariant 2, dispatched on the configured scheme. */
    void checkCommit(const TxShadow &tx);

    void violate(ViolationKind kind, unsigned core, std::uint16_t txid,
                 Addr addr, std::string detail);

    /** The simulated time of a violation found now. */
    Tick now() const { return _eq ? _eq->now() : _stoppedAt; }

    SchemeKind _scheme;
    unsigned _numCores;
    /** The live clock; nullptr once stopped. */
    const EventQueue *_eq;
    Tick _stoppedAt = 0;
    /** The persistent domain observed: the machine's, or a crash copy. */
    const PersistentDomain *_domain;

    /** Each core's latest (possibly open) transaction. */
    std::vector<TxShadow> _txs;

    /** First value ever observed for each stored word (initial image). */
    std::map<Addr, Word> _initialValue;
    /** Values of committed transactions, applied in commit order. */
    std::map<Addr, Word> _committedImage;
    /** Every value ever committed per word (invariant 7's tolerance
     *  for checkpoint flushes that race with commits). */
    std::map<Addr, std::set<Word>> _committedValueHistory;

    /**
     * Durable copies per LSN (migration double-copy window): +1 at
     * persist, -1 at drop, and a truncate clears its thread's LSNs (an
     * LSN is a record's first address in its own thread's area).
     */
    std::map<std::uint64_t, unsigned> _lsnCopies;

    /** The owner of a held (LAD) WPQ line, durable but revocable by
     *  discard; by its release the core may run another transaction. */
    struct HeldLine
    {
        /** The owning transaction, if its core had one open. */
        bool owned = false;
        unsigned core = 0;
        std::uint16_t txid = 0;
    };

    /** Held (LAD) lines -> owning tx. */
    std::map<Addr, HeldLine> _heldLines;
    /** Flush-bit claims: word -> new data the ADR supposedly carries. */
    std::map<Addr, Word> _flushBitDelivered;

    CheckerCounters _counters;
    std::vector<Violation> _violations;
};

} // namespace silo::check

#endif // SILO_CHECK_PERSISTENCY_CHECKER_HH
