#include "check/persistency_checker.hh"

#include <sstream>

#include "sim/address_map.hh"
#include "sim/json.hh"

namespace silo::check
{

const char *
violationName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::LogBeforeData: return "log-before-data";
      case ViolationKind::CommitNotDurable: return "commit-not-durable";
      case ViolationKind::HeldReleaseOrdering:
        return "held-release-ordering";
      case ViolationKind::FlushBitAccounting:
        return "flush-bit-accounting";
      case ViolationKind::DoublePersist: return "double-persist";
      case ViolationKind::TornWrite: return "torn-write";
      case ViolationKind::CrashClosure: return "crash-closure";
      case ViolationKind::LiveRecordReclaimed:
        return "live-record-reclaimed";
      case ViolationKind::CheckpointImage: return "checkpoint-image";
    }
    return "unknown";
}

ViolationKind
violationKindFromName(const std::string &name)
{
    for (ViolationKind kind :
         {ViolationKind::LogBeforeData, ViolationKind::CommitNotDurable,
          ViolationKind::HeldReleaseOrdering,
          ViolationKind::FlushBitAccounting, ViolationKind::DoublePersist,
          ViolationKind::TornWrite, ViolationKind::CrashClosure,
          ViolationKind::LiveRecordReclaimed,
          ViolationKind::CheckpointImage}) {
        if (name == violationName(kind))
            return kind;
    }
    fatal("unknown violation kind: " + name);
}

std::string
Violation::toJson() const
{
    std::ostringstream os;
    os << "{\"kind\": \"" << violationName(kind) << "\", \"tick\": "
       << tick << ", \"core\": " << core << ", \"txid\": " << txid
       << ", \"addr\": \"0x" << std::hex << addr << std::dec
       << "\", \"crash_index\": " << crashIndex << ", \"detail\": \""
       << jsonEscape(detail) << "\"}";
    return os.str();
}

PersistencyChecker::PersistencyChecker(const SimConfig &cfg,
                                       const EventQueue &eq)
    : _scheme(cfg.scheme), _numCores(cfg.numCores),
      _pmLineWords(cfg.onPmBufferLineBytes / wordBytes), _eq(&eq),
      _latestTx(cfg.numCores), _hasTx(cfg.numCores)
{
}

void
PersistencyChecker::violate(ViolationKind kind, unsigned core,
                            std::uint16_t txid, Addr addr,
                            std::string detail)
{
    _violations.push_back(
        Violation{kind, now(), core, txid, addr, std::move(detail)});
}

std::size_t
PersistencyChecker::countOf(ViolationKind kind) const
{
    std::size_t n = 0;
    for (const auto &v : _violations)
        n += v.kind == kind ? 1 : 0;
    return n;
}

void
PersistencyChecker::report(std::ostream &os) const
{
    for (const auto &v : _violations) {
        os << "[checker] " << violationName(v.kind) << " tick=" << v.tick
           << " core=" << v.core << " txid=" << v.txid << " addr=0x"
           << std::hex << v.addr << std::dec << " : " << v.detail
           << "\n";
    }
}

PersistencyChecker::TxShadow *
PersistencyChecker::openTxOf(unsigned core)
{
    if (core >= _hasTx.size() || !_hasTx[core])
        return nullptr;
    auto it = _txs.find(key(core, _latestTx[core]));
    if (it == _txs.end() || !it->second.open)
        return nullptr;
    return &it->second;
}

// --- Transaction and crash events ---------------------------------------

void
PersistencyChecker::onTxBegin(unsigned core, std::uint16_t txid)
{
    _latestTx[core] = txid;
    _hasTx[core] = true;
    TxShadow &tx = _txs[key(core, txid)];
    tx.core = core;
    tx.txid = txid;
    tx.open = true;
}

void
PersistencyChecker::onStore(unsigned core, Addr addr, Word old_val,
                            Word new_val)
{
    ++_counters.stores;
    TxShadow *tx = openTxOf(core);
    if (!tx)
        return;
    auto [it, inserted] =
        tx->writes.emplace(addr, std::make_pair(old_val, new_val));
    if (!inserted)
        it->second.second = new_val;
    _pendingWriter[addr] = key(core, tx->txid);
    _initialValue.emplace(addr, old_val);
    // A new value supersedes whatever an earlier flush-bit delivered.
    _flushBitDelivered.erase(addr);
}

void
PersistencyChecker::onTxEndRequested(unsigned core)
{
    if (TxShadow *tx = openTxOf(core))
        tx->endRequested = true;
}

void
PersistencyChecker::onTxEndComplete(unsigned core)
{
    TxShadow *tx = openTxOf(core);
    if (!tx)
        return;
    ++_counters.commits;
    checkCommit(*tx);
    tx->open = false;
    tx->committed = true;
    TxKey k = key(core, tx->txid);
    for (const auto &[addr, vals] : tx->writes) {
        _committedImage[addr] = vals.second;
        _committedValueHistory[addr].insert(vals.second);
        auto it = _pendingWriter.find(addr);
        if (it != _pendingWriter.end() && it->second == k)
            _pendingWriter.erase(it);
    }
    _batteryUndo.erase(k);
    _adrUndo.erase(k);
}

void
PersistencyChecker::onBatteryDead()
{
    // The battery flush ran inside the scheme's crash(): anything that
    // needed to survive is now in the log region. On-chip coverage is
    // gone (and so is MorLog's MC buffer, which the ADR flush emptied).
    _batteryUndo.clear();
    _adrUndo.clear();
}

void
PersistencyChecker::noteBatteryUndo(unsigned core, std::uint16_t txid,
                                    Addr addr, Word old_val)
{
    (void)old_val;
    _batteryUndo[key(core, txid)].insert(addr);
}

void
PersistencyChecker::noteAdrUndo(unsigned core, std::uint16_t txid,
                                Addr addr, Word old_val)
{
    (void)old_val;
    _adrUndo[key(core, txid)].insert(addr);
}

void
PersistencyChecker::noteFlushBit(unsigned core, std::uint16_t txid,
                                 Addr addr, Word new_data)
{
    // A flush-bit claims "the ADR domain already carries this word's
    // new data": the WPQ must have accepted an eviction with exactly
    // this value, or the entry was matched against a stale eviction.
    auto it = _adrValue.find(addr);
    if (it == _adrValue.end() || it->second != new_data) {
        std::ostringstream ss;
        ss << "flush-bit set but the ADR domain holds "
           << (it == _adrValue.end() ? std::string("no value")
                                     : std::to_string(it->second))
           << ", not the entry's new data " << new_data;
        violate(ViolationKind::FlushBitAccounting, core, txid, addr,
                ss.str());
        return;
    }
    _flushBitDelivered[addr] = new_data;
}

void
PersistencyChecker::onLogInFlight(Addr rec_addr,
                                  const log::LogRecord &record)
{
    _inFlightRecords[rec_addr] = record;
}

// --- Coverage and invariant 1 -------------------------------------------

bool
PersistencyChecker::undoCoverage(const TxShadow &tx, Addr addr) const
{
    TxKey k = key(tx.core, tx.txid);

    if (auto it = _batteryUndo.find(k);
        it != _batteryUndo.end() && it->second.count(addr))
        return true;
    if (auto it = _adrUndo.find(k);
        it != _adrUndo.end() && it->second.count(addr))
        return true;
    if (auto it = _txLoggedUndo.find(k);
        it != _txLoggedUndo.end() && it->second.count(addr))
        return true;
    for (const auto &[rec_addr, rec] : _inFlightRecords) {
        if ((rec.kind == log::LogRecord::Kind::Undo ||
             rec.kind == log::LogRecord::Kind::UndoRedo) &&
            rec.tid == tx.core && rec.txid == tx.txid &&
            rec.dataAddr == addr)
            return true;
    }
    return false;
}

void
PersistencyChecker::checkDomainEntry(Addr addr, Word value, bool held,
                                     const char *domain)
{
    if (_scheme == SchemeKind::None)
        return;
    auto pending = _pendingWriter.find(addr);
    if (pending == _pendingWriter.end())
        return;
    auto tx_it = _txs.find(pending->second);
    if (tx_it == _txs.end() || tx_it->second.committed)
        return;
    const TxShadow &tx = tx_it->second;
    auto w = tx.writes.find(addr);
    if (w == tx.writes.end())
        return;
    // The pre-transaction value needs no revocation; any other value is
    // an uncommitted (intermediate or latest) value of the open tx.
    if (value == w->second.first)
        return;
    if (held)
        return; // revocable by discard (LAD's buffered entries)
    if (undoCoverage(tx, addr))
        return;
    std::ostringstream ss;
    ss << "uncommitted value " << value << " reached the " << domain
       << " with no durable undo coverage (pre-tx value "
       << w->second.first << ")";
    violate(ViolationKind::LogBeforeData, tx.core, tx.txid, addr,
            ss.str());
}

// --- Memory-system events -----------------------------------------------

void
PersistencyChecker::onWpqAcceptLine(
    Addr line_addr, const std::array<Word, wordsPerLine> &values,
    bool evicted, bool held)
{
    (void)evicted;
    ++_counters.wpqLineAccepts;
    if (held) {
        // Identify the owning transaction via the thread-affine arena.
        TxKey owner = 0;
        if (addr_map::inDataRegion(line_addr)) {
            unsigned core = addr_map::dataArenaOwner(line_addr);
            if (TxShadow *tx = openTxOf(core))
                owner = key(core, tx->txid);
        }
        auto &entry = _heldLines[line_addr];
        entry.owner = owner;
        for (unsigned w = 0; w < wordsPerLine; ++w)
            entry.words[line_addr + Addr(w) * wordBytes] = values[w];
        return;
    }
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        Addr addr = line_addr + Addr(w) * wordBytes;
        checkDomainEntry(addr, values[w], false, "ADR WPQ");
        _adrValue[addr] = values[w];
    }
}

void
PersistencyChecker::onWpqAcceptWord(Addr word_addr, Word value)
{
    ++_counters.wpqWordAccepts;
    checkDomainEntry(word_addr, value, false, "ADR WPQ");
    auto fb = _flushBitDelivered.find(word_addr);
    if (fb != _flushBitDelivered.end() && fb->second == value) {
        std::ostringstream ss;
        ss << "in-place update of value " << value
           << " whose flush-bit already marked it delivered";
        violate(ViolationKind::DoublePersist, 0, 0, word_addr, ss.str());
    }
    _adrValue[word_addr] = value;
}

void
PersistencyChecker::onHeldRelease(Addr line_addr)
{
    auto it = _heldLines.find(line_addr);
    if (it == _heldLines.end())
        return;
    HeldLine entry = it->second;
    _heldLines.erase(it);

    // Releasing makes the entry drainable (irrevocable): legal only if
    // the owning transaction is committing/committed, or every word it
    // wrote in the line has durable undo coverage (LAD slow mode).
    auto tx_it = _txs.find(entry.owner);
    if (tx_it == _txs.end()) {
        for (const auto &[addr, value] : entry.words)
            _adrValue[addr] = value;
        return;
    }
    const TxShadow &tx = tx_it->second;
    if (!tx.committed && !tx.endRequested) {
        for (const auto &[addr, vals] : tx.writes) {
            if (lineAlign(addr) != line_addr)
                continue;
            if (!undoCoverage(tx, addr)) {
                violate(ViolationKind::HeldReleaseOrdering, tx.core,
                        tx.txid, addr,
                        "held entry released mid-transaction without "
                        "undo coverage");
            }
        }
    }
    for (const auto &[addr, value] : entry.words)
        _adrValue[addr] = value;
}

void
PersistencyChecker::onHeldDiscard(Addr line_addr)
{
    auto it = _heldLines.find(line_addr);
    if (it == _heldLines.end())
        return;
    TxKey owner = it->second.owner;
    _heldLines.erase(it);
    auto tx_it = _txs.find(owner);
    if (tx_it != _txs.end() && tx_it->second.committed) {
        violate(ViolationKind::HeldReleaseOrdering, tx_it->second.core,
                tx_it->second.txid, line_addr,
                "crash discarded a held entry of a committed "
                "transaction (release ordering broken)");
    }
}

void
PersistencyChecker::onMediaWrite(
    Addr pm_line, const std::vector<std::pair<unsigned, Word>> &words,
    bool log_region)
{
    // Media programming is a delayed replay of writes that already
    // passed the ADR entry check (WPQ accept / held release): a stale
    // buffered value may coincide with a newer transaction's pending
    // value, so invariant 1 must NOT be re-evaluated here. Only the
    // torn-write bound applies.
    (void)log_region;
    ++_counters.mediaLineWrites;
    for (const auto &[idx, value] : words) {
        (void)value;
        if (idx >= _pmLineWords) {
            std::ostringstream ss;
            ss << "word index " << idx
               << " straddles the 256 B on-PM buffer line";
            violate(ViolationKind::TornWrite, 0, 0, pm_line, ss.str());
        }
    }
}

void
PersistencyChecker::onLogPersist(Addr rec_addr,
                                 const log::LogRecord &record)
{
    ++_counters.logPersists;
    _inFlightRecords.erase(rec_addr);
    auto [it, inserted] = _durableRecords.emplace(rec_addr, record);
    if (!inserted) {
        // Re-persist of the same address (e.g. a crash flush replaying
        // an already-accepted record): keep the copy count exact.
        if (it->second.lsn != 0)
            --_lsnCopies[it->second.lsn];
        it->second = record;
    }
    if (record.lsn != 0)
        ++_lsnCopies[record.lsn];
    TxKey k = key(record.tid, record.txid);
    switch (record.kind) {
      case log::LogRecord::Kind::Undo:
      case log::LogRecord::Kind::UndoRedo:
        _txLoggedUndo[k].insert(record.dataAddr);
        break;
      case log::LogRecord::Kind::Commit:
        _txMarker.insert(k);
        break;
      case log::LogRecord::Kind::Redo:
      case log::LogRecord::Kind::IdTuple:
      case log::LogRecord::Kind::Checkpoint:
        break;
    }
}

void
PersistencyChecker::eraseDurable(
    std::map<Addr, log::LogRecord>::iterator it)
{
    if (it->second.lsn != 0) {
        auto c = _lsnCopies.find(it->second.lsn);
        if (c != _lsnCopies.end() && --c->second == 0)
            _lsnCopies.erase(c);
    }
    _durableRecords.erase(it);
}

void
PersistencyChecker::onLogTruncate(unsigned tid, Addr head, Addr tail)
{
    (void)tid;
    auto it = _durableRecords.lower_bound(head);
    while (it != _durableRecords.end() && it->first < tail)
        eraseDurable(it++);
}

// --- Invariant 6: no live record reclaimed ------------------------------

bool
PersistencyChecker::recordIsDead(const log::LogRecord &rec) const
{
    if (rec.kind == log::LogRecord::Kind::Checkpoint)
        return true;
    auto tx_it = _txs.find(key(rec.tid, rec.txid));
    bool committed = tx_it != _txs.end() && tx_it->second.committed;
    if (!committed)
        return false;
    if (rec.kind != log::LogRecord::Kind::Redo &&
        rec.kind != log::LogRecord::Kind::UndoRedo)
        return true; // undo data / markers of a committed tx
    // Redo data of a committed tx is needed until the word's CURRENT
    // committed value is durable in the ADR domain (checkpoint flushed
    // it) or this record was superseded by a later committed store
    // (whose own record carries the replay obligation).
    auto committed_val = _committedImage.find(rec.dataAddr);
    if (committed_val == _committedImage.end())
        return false;
    if (rec.newData != committed_val->second)
        return true; // superseded
    auto adr = _adrValue.find(rec.dataAddr);
    return adr != _adrValue.end() && adr->second == committed_val->second;
}

void
PersistencyChecker::onLogRecordDrop(Addr rec_addr,
                                    const log::LogRecord &record,
                                    log::LogDropReason reason)
{
    ++_counters.logRecordDrops;
    auto it = _durableRecords.find(rec_addr);
    if (reason == log::LogDropReason::Migrated) {
        // The migrated copy must already be durable: with this original
        // still counted, its LSN must have at least two durable copies.
        auto c = record.lsn != 0 ? _lsnCopies.find(record.lsn)
                                 : _lsnCopies.end();
        if (c == _lsnCopies.end() || c->second < 2) {
            violate(ViolationKind::LiveRecordReclaimed, record.tid,
                    record.txid, record.dataAddr,
                    "migration dropped a record before its copy became "
                    "durable");
        }
    } else if (!recordIsDead(record)) {
        violate(ViolationKind::LiveRecordReclaimed, record.tid,
                record.txid, record.dataAddr,
                std::string(reason == log::LogDropReason::Checkpointed
                                ? "checkpoint"
                                : "segment reclaim") +
                    " dropped a record still needed for recovery");
    }
    if (it != _durableRecords.end())
        eraseDurable(it);
}

void
PersistencyChecker::onLogSegmentReclaimed(unsigned tid,
                                          std::uint64_t segment)
{
    (void)tid;
    (void)segment;
    ++_counters.segmentReclaims;
}

// --- Invariant 7: checkpoint image --------------------------------------

void
PersistencyChecker::onCheckpointWord(Addr word_addr, Word value)
{
    ++_counters.checkpointWords;
    auto hist = _committedValueHistory.find(word_addr);
    if (hist != _committedValueHistory.end() &&
        hist->second.count(value))
        return;
    auto init = _initialValue.find(word_addr);
    if (init != _initialValue.end() && init->second == value)
        return;
    if (hist == _committedValueHistory.end() &&
        init == _initialValue.end())
        return; // word never observed; nothing to compare against
    std::ostringstream ss;
    ss << "checkpoint flushed " << value << " but the committed image "
       << "holds "
       << (_committedImage.count(word_addr)
               ? std::to_string(_committedImage[word_addr])
               : std::string("no committed value"));
    violate(ViolationKind::CheckpointImage, 0, 0, word_addr, ss.str());
}

void
PersistencyChecker::onCheckpointComplete(unsigned tid,
                                         std::uint64_t words)
{
    (void)tid;
    (void)words;
    ++_counters.checkpoints;
}

// --- Invariant 2: commit durability -------------------------------------

void
PersistencyChecker::checkCommit(const TxShadow &tx)
{
    TxKey k = key(tx.core, tx.txid);

    switch (_scheme) {
      case SchemeKind::None:
        return;

      case SchemeKind::Base:
      case SchemeKind::Fwb:
      case SchemeKind::MorLog:
      case SchemeKind::SwEadr: {
        // WAL commit: every changed word's undo/redo record and the
        // commit marker must have been durable before done() fired.
        auto logged = _txLoggedUndo.find(k);
        for (const auto &[addr, vals] : tx.writes) {
            if (vals.first == vals.second)
                continue;
            if (logged == _txLoggedUndo.end() ||
                !logged->second.count(addr)) {
                violate(ViolationKind::CommitNotDurable, tx.core,
                        tx.txid, addr,
                        "Tx_end completed without a durable log record "
                        "for this word");
            }
        }
        if (!_txMarker.count(k)) {
            violate(ViolationKind::CommitNotDurable, tx.core, tx.txid, 0,
                    "Tx_end completed without a durable commit marker");
        }
        return;
      }

      case SchemeKind::Lad: {
        // LAD commit: every changed word durable in the ADR domain and
        // no entry of the transaction still held (release ordering).
        for (const auto &[addr, vals] : tx.writes) {
            if (vals.first == vals.second)
                continue;
            auto it = _adrValue.find(addr);
            if (it == _adrValue.end() || it->second != vals.second) {
                violate(ViolationKind::CommitNotDurable, tx.core,
                        tx.txid, addr,
                        "Tx_end completed but the word's final value "
                        "never reached the ADR domain");
            }
        }
        for (const auto &[line, entry] : _heldLines) {
            if (entry.owner == k) {
                violate(ViolationKind::HeldReleaseOrdering, tx.core,
                        tx.txid, line,
                        "Tx_end completed with an entry of the "
                        "transaction still held in the MC");
            }
        }
        return;
      }

      case SchemeKind::Silo: {
        // Silo commit: every changed word is in battery custody (log
        // buffer / staged), flush-bit-delivered, or already accepted.
        auto battery = _batteryUndo.find(k);
        for (const auto &[addr, vals] : tx.writes) {
            if (vals.first == vals.second)
                continue;
            if (battery != _batteryUndo.end() &&
                battery->second.count(addr))
                continue;
            auto fb = _flushBitDelivered.find(addr);
            if (fb != _flushBitDelivered.end() &&
                fb->second == vals.second)
                continue;
            auto adr = _adrValue.find(addr);
            if (adr != _adrValue.end() && adr->second == vals.second)
                continue;
            violate(ViolationKind::CommitNotDurable, tx.core, tx.txid,
                    addr,
                    "Tx_end completed with the word neither in battery "
                    "custody nor durable in the ADR domain");
        }
        return;
      }
    }
}

// --- Invariant 4: crash closure -----------------------------------------

void
PersistencyChecker::onRecoveryComplete(const PersistentDomain &domain)
{
    if (_scheme == SchemeKind::None)
        return;

    // Oracle: initial values + the stores of every durably committed
    // transaction. A commit in flight at the crash counts if its
    // commit marker is durable.
    std::map<Addr, Word> expected = _initialValue;
    for (const auto &[addr, value] : _committedImage)
        expected[addr] = value;
    for (unsigned core = 0; core < _numCores; ++core) {
        if (!_hasTx[core])
            continue;
        auto it = _txs.find(key(core, _latestTx[core]));
        if (it == _txs.end())
            continue;
        const TxShadow &tx = it->second;
        if (tx.committed || !tx.endRequested)
            continue;
        if (domain.commitMarkers[core]) {
            for (const auto &[addr, vals] : tx.writes)
                expected[addr] = vals.second;
        }
    }

    constexpr std::size_t maxReports = 16;
    std::size_t reported = 0;
    for (const auto &[addr, value] : expected) {
        ++_counters.wordsCheckedAtRecovery;
        Word got = domain.media.load(addr);
        if (got == value)
            continue;
        if (reported++ < maxReports) {
            std::ostringstream ss;
            ss << "recovered media holds " << got << ", oracle expects "
               << value;
            violate(ViolationKind::CrashClosure, 0, 0, addr, ss.str());
        }
    }
    if (reported > maxReports) {
        violate(ViolationKind::CrashClosure, 0, 0, 0,
                "... " + std::to_string(reported - maxReports) +
                    " more mismatching words suppressed");
    }
}

} // namespace silo::check
