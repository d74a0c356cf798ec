/**
 * @file
 * The persistency checker: an online durability-invariant analysis
 * pass over the whole memory system.
 *
 * The checker shadows every word's persist state across the domains
 *   volatile cache -> ADR WPQ -> on-PM buffer -> media
 * plus the battery/ADR-backed log structures, and validates the
 * scheme-specific durability invariants at store, WPQ-acceptance,
 * commit, crash, and recovery time:
 *
 *  1. log-before-data — no word carrying an uncommitted new value may
 *     enter the persistent domain (WPQ accept, media program) unless a
 *     revoking undo record is durable first: in the PM log region, in
 *     the MC's ADR log path (in-flight), or in a battery/ADR-backed
 *     scheme structure (Silo's log buffer, MorLog's MC buffer). LAD's
 *     held entries are exempt — they are revocable by discard.
 *  2. commit durability — when Tx_end completes, the scheme's commit
 *     precondition holds: WAL schemes (Base/FWB/MorLog/SW-eADR) have
 *     every changed word's log record plus the commit marker durable;
 *     LAD has every changed word accepted into the ADR domain and no
 *     entry of the transaction still held; Silo has every changed word
 *     in battery custody, flush-bit-covered, or already accepted.
 *  3. flush-bit accounting — Silo may set an entry's flush-bit only
 *     when the WPQ actually accepted an eviction carrying that word's
 *     current new data, and must not write the word in-place again
 *     afterwards (double persist).
 *  4. crash closure — after crash + recovery, the media image must
 *     equal the checker's own oracle: initial values plus exactly the
 *     stores of every durably committed transaction.
 *  5. torn writes — media programming never straddles an on-PM buffer
 *     line.
 *  6. no live record reclaimed — the segmented-log lifecycle may drop
 *     a durable record only when it is dead: a migration drop needs a
 *     second durable copy of the same LSN, a checkpoint/reclaim drop
 *     needs the owning transaction committed and (for redo-bearing
 *     records) the word's committed value durable in the ADR domain or
 *     superseded by a later committed value.
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
 * The checker is a copyable value that reaches nothing of the machine
 * but the event queue's clock, and stopClock() cuts that: a crash
 * sweep copies it with the persistent domain after each event, so the
 * crash hooks (onCrashBegin() ... onRecoveryComplete()) and every
 * sink event the crash raises run on the copy, observing the domain's
 * copy (harness::sweepCrashes()).
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
    TornWrite,          //!< media write straddles an on-PM buffer line
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
    std::uint64_t mediaLineWrites = 0;
    std::uint64_t commits = 0;
    std::uint64_t wordsCheckedAtRecovery = 0;
    std::uint64_t logRecordDrops = 0;
    std::uint64_t segmentReclaims = 0;
    std::uint64_t checkpointWords = 0;
    std::uint64_t checkpoints = 0;
};

/** Online durability-invariant checker (see file header). */
class PersistencyChecker : public log::PersistEventSink
{
  public:
    PersistencyChecker(const SimConfig &cfg, const EventQueue &eq);

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
     * The crash began: runs before any battery or ADR flush. Time
     * stops (stopClock()).
     */
    void onCrashBegin() { stopClock(); }
    /** The battery died: scheme-internal shadow coverage is gone. */
    void onBatteryDead();
    /**
     * Recovery finished: validate @p domain 's media against the
     * oracle, committing each core's last transaction if its commit
     * marker is durable.
     */
    void onRecoveryComplete(const PersistentDomain &domain);
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

    /** @name Scheme-side coverage notes */
    /// @{
    /** Silo appended an undo entry to the battery-backed log buffer. */
    void noteBatteryUndo(unsigned core, std::uint16_t txid, Addr addr,
                         Word old_val) override;
    /** MorLog appended an undo entry to its ADR-domain MC buffer. */
    void noteAdrUndo(unsigned core, std::uint16_t txid, Addr addr,
                     Word old_val) override;
    /** Silo set an entry's flush-bit (claims ADR has @p new_data). */
    void noteFlushBit(unsigned core, std::uint16_t txid, Addr addr,
                      Word new_data) override;
    /** A record entered the MC's ADR log path (durable, pre-accept). */
    void onLogInFlight(Addr rec_addr,
                       const log::LogRecord &record) override;
    /// @}

    /** @name PersistEventSink (memory-system events) */
    /// @{
    void onWpqAcceptLine(Addr line_addr,
                         const std::array<Word, wordsPerLine> &values,
                         bool evicted, bool held) override;
    void onWpqAcceptWord(Addr word_addr, Word value) override;
    void onHeldRelease(Addr line_addr) override;
    void onHeldDiscard(Addr line_addr) override;
    void onMediaWrite(
        Addr pm_line,
        const std::vector<std::pair<unsigned, Word>> &words,
        bool log_region) override;
    void onLogPersist(Addr rec_addr, const log::LogRecord &record) override;
    void onLogTruncate(unsigned tid, Addr head, Addr tail) override;
    void onLogRecordDrop(Addr rec_addr, const log::LogRecord &record,
                         log::LogDropReason reason) override;
    void onLogSegmentReclaimed(unsigned tid,
                               std::uint64_t segment) override;
    void onCheckpointWord(Addr word_addr, Word value) override;
    void onCheckpointComplete(unsigned tid, std::uint64_t words) override;
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
    /** Shadow of one transaction seen by the checker. */
    struct TxShadow
    {
        unsigned core = 0;
        std::uint16_t txid = 0;
        bool open = false;          //!< begun, Tx_end not yet complete
        bool endRequested = false;  //!< Tx_end hook entered
        bool committed = false;     //!< Tx_end done() fired
        /** addr -> (value before the tx's first store, latest value). */
        std::map<Addr, std::pair<Word, Word>> writes;
    };

    using TxKey = std::uint32_t; //!< core << 16 | txid

    static TxKey key(unsigned core, std::uint16_t txid)
    {
        return TxKey(core) << 16 | txid;
    }

    TxShadow *openTxOf(unsigned core);

    /**
     * A word carrying @p value entered a persistent domain. Checks
     * invariant 1 when the value is an uncommitted new value.
     * @param domain "WPQ" or "media" (for the report).
     */
    void checkDomainEntry(Addr addr, Word value, bool held,
                          const char *domain);

    /** @return true if an undo covering (tx, addr) is durable now. */
    bool undoCoverage(const TxShadow &tx, Addr addr) const;

    /**
     * Invariant 6: @return true if dropping this durable record cannot
     * lose recovery information (owning tx committed; redo-bearing
     * records additionally superseded or flushed to the ADR domain).
     */
    bool recordIsDead(const log::LogRecord &rec) const;

    /** Remove one durable record, maintaining the per-LSN copy count. */
    void eraseDurable(std::map<Addr, log::LogRecord>::iterator it);

    /** Invariant 2, dispatched on the configured scheme. */
    void checkCommit(const TxShadow &tx);

    void violate(ViolationKind kind, unsigned core, std::uint16_t txid,
                 Addr addr, std::string detail);

    /** The simulated time of a violation found now. */
    Tick now() const { return _eq ? _eq->now() : _stoppedAt; }

    SchemeKind _scheme;
    unsigned _numCores;
    /** Words per on-PM buffer line (invariant 5's bound). */
    unsigned _pmLineWords;
    /** The live clock; nullptr once stopped. */
    const EventQueue *_eq;
    Tick _stoppedAt = 0;

    /** Every transaction ever begun. */
    std::map<TxKey, TxShadow> _txs;
    /** Latest (possibly open) transaction per core. */
    std::vector<std::uint16_t> _latestTx;
    std::vector<bool> _hasTx;

    /** addr -> key of the open tx whose uncommitted value it holds. */
    std::map<Addr, TxKey> _pendingWriter;
    /** First value ever observed for each stored word (initial image). */
    std::map<Addr, Word> _initialValue;
    /** Values of committed transactions, applied in commit order. */
    std::map<Addr, Word> _committedImage;
    /** Every value ever committed per word (invariant 7's tolerance
     *  for checkpoint flushes that race with commits). */
    std::map<Addr, std::set<Word>> _committedValueHistory;

    /** Durable log region: record address -> record (truncation-aware). */
    std::map<Addr, log::LogRecord> _durableRecords;
    /** Durable copies per nonzero LSN (migration double-copy window). */
    std::map<std::uint64_t, unsigned> _lsnCopies;
    /** Records in the MC's ADR log path (durable, awaiting accept). */
    std::map<Addr, log::LogRecord> _inFlightRecords;
    /** Cumulative per-tx logged undo addresses (survives truncation). */
    std::map<TxKey, std::set<Addr>> _txLoggedUndo;
    /** Cumulative per-tx commit markers (survives truncation). */
    std::set<TxKey> _txMarker;

    /** Battery-backed (Silo) undo coverage: tx -> addrs. */
    std::map<TxKey, std::set<Addr>> _batteryUndo;
    /** ADR-buffer (MorLog) undo coverage: tx -> addrs. */
    std::map<TxKey, std::set<Addr>> _adrUndo;

    /** One held (LAD) WPQ line: durable but revocable by discard. */
    struct HeldLine
    {
        TxKey owner = 0;
        /** Accepted word values, promoted to _adrValue at release. */
        std::map<Addr, Word> words;
    };

    /** Last value accepted into the ADR domain, per word. */
    std::map<Addr, Word> _adrValue;
    /** Held (LAD) lines -> owning tx + values. */
    std::map<Addr, HeldLine> _heldLines;
    /** Flush-bit claims: word -> new data the ADR supposedly carries. */
    std::map<Addr, Word> _flushBitDelivered;

    CheckerCounters _counters;
    std::vector<Violation> _violations;
};

} // namespace silo::check

#endif // SILO_CHECK_PERSISTENCY_CHECKER_HH
