#include "check/persistency_checker.hh"

#include <algorithm>
#include <sstream>

#include "mc/mem_controller.hh"
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
          ViolationKind::CrashClosure, ViolationKind::LiveRecordReclaimed,
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
                                       const EventQueue &eq,
                                       const PersistentDomain &domain)
    : _scheme(cfg.scheme), _numCores(cfg.numCores), _eq(&eq),
      _domain(&domain), _txs(cfg.numCores)
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
    if (core >= _txs.size() || !_txs[core].open)
        return nullptr;
    return &_txs[core];
}

PersistencyChecker::TxShadow *
PersistencyChecker::latestTx(unsigned core, std::uint16_t txid)
{
    TxShadow &tx = _txs.at(core);
    return tx.txid == txid ? &tx : nullptr;
}

const PersistencyChecker::TxShadow *
PersistencyChecker::pendingWriter(Addr addr) const
{
    if (!addr_map::inDataRegion(addr))
        return nullptr;
    unsigned core = addr_map::dataArenaOwner(addr);
    if (core >= _txs.size())
        return nullptr;
    const TxShadow &tx = _txs[core];
    return tx.open && tx.writes.count(addr) ? &tx : nullptr;
}

// --- Transaction and crash events ---------------------------------------

void
PersistencyChecker::onTxBegin(unsigned core, std::uint16_t txid)
{
    TxShadow &tx = _txs.at(core);
    tx = TxShadow{};
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
    for (const auto &[addr, vals] : tx->writes) {
        _committedImage[addr] = vals.second;
        _committedValueHistory[addr].insert(vals.second);
    }
}

void
PersistencyChecker::noteFlushBit(unsigned core, std::uint16_t txid,
                                 Addr addr, Word new_data)
{
    // A flush-bit claims "the ADR domain already carries this word's
    // new data": the WPQ must have accepted an eviction with exactly
    // this value, or the entry was matched against a stale eviction.
    std::optional<Word> adr = mc::adrValue(*_domain, addr);
    if (adr != new_data) {
        std::ostringstream ss;
        ss << "flush-bit set but the ADR domain holds "
           << (adr ? std::to_string(*adr) : std::string("no value"))
           << ", not the entry's new data " << new_data;
        violate(ViolationKind::FlushBitAccounting, core, txid, addr,
                ss.str());
        return;
    }
    _flushBitDelivered[addr] = new_data;
}

// --- Coverage and invariant 1 -------------------------------------------

bool
PersistencyChecker::undoCoverage(const TxShadow &tx, Addr addr) const
{
    if (tx.loggedUndo.count(addr) || inSchemeBuffer(tx, addr))
        return true;
    // Records waiting in an MC's ADR log path are durable already.
    for (const mc::McState &mc : _domain->mcs) {
        for (const auto &[rec_addr, rec] : mc.logPath) {
            if ((rec.kind == log::LogRecord::Kind::Undo ||
                 rec.kind == log::LogRecord::Kind::UndoRedo) &&
                rec.tid == tx.core && rec.txid == tx.txid &&
                rec.dataAddr == addr)
                return true;
        }
    }
    return false;
}

bool
PersistencyChecker::inSchemeBuffer(const TxShadow &tx, Addr addr) const
{
    auto holds = [&](const auto &entry) {
        return entry.txid == tx.txid && entry.addr == addr;
    };
    const PersistentDomain &d = *_domain;
    return (tx.core < d.silo.size() &&
            std::ranges::any_of(d.silo[tx.core].buffer, holds)) ||
           (tx.core < d.morlog.size() &&
            std::ranges::any_of(d.morlog[tx.core], holds));
}

void
PersistencyChecker::checkDomainEntry(Addr addr, Word value)
{
    const TxShadow *tx = pendingWriter(addr);
    if (!tx)
        return;
    // The pre-transaction value needs no revocation; any other value is
    // an uncommitted (intermediate or latest) value of the open tx.
    Word pre_tx = tx->writes.at(addr).first;
    if (value == pre_tx)
        return;
    if (undoCoverage(*tx, addr))
        return;
    std::ostringstream ss;
    ss << "uncommitted value " << value
       << " reached the ADR WPQ with no durable undo coverage (pre-tx "
       << "value " << pre_tx << ")";
    violate(ViolationKind::LogBeforeData, tx->core, tx->txid, addr,
            ss.str());
}

// --- Memory-system events -----------------------------------------------

void
PersistencyChecker::onWpqAcceptLine(
    Addr line_addr, const std::array<Word, wordsPerLine> &values,
    bool held)
{
    ++_counters.wpqLineAccepts;
    if (held) {
        // Revocable by discard, so invariant 1 waits for the release.
        // Identify the owning transaction via the thread-affine arena.
        auto &entry = _heldLines[line_addr];
        entry.owned = false;
        if (addr_map::inDataRegion(line_addr)) {
            unsigned core = addr_map::dataArenaOwner(line_addr);
            if (TxShadow *tx = openTxOf(core)) {
                entry.owned = true;
                entry.core = core;
                entry.txid = tx->txid;
            }
        }
        return;
    }
    for (unsigned w = 0; w < wordsPerLine; ++w)
        checkDomainEntry(line_addr + Addr(w) * wordBytes, values[w]);
}

void
PersistencyChecker::onWpqAcceptWord(Addr word_addr, Word value)
{
    ++_counters.wpqWordAccepts;
    checkDomainEntry(word_addr, value);
    auto fb = _flushBitDelivered.find(word_addr);
    if (fb != _flushBitDelivered.end() && fb->second == value) {
        std::ostringstream ss;
        ss << "in-place update of value " << value
           << " whose flush-bit already marked it delivered";
        violate(ViolationKind::DoublePersist, 0, 0, word_addr, ss.str());
    }
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
    const TxShadow &tx = _txs[entry.core];
    if (entry.owned && !committed(entry.core, entry.txid) &&
        !tx.endRequested) {
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
}

void
PersistencyChecker::onHeldDiscard(Addr line_addr)
{
    auto it = _heldLines.find(line_addr);
    if (it == _heldLines.end())
        return;
    HeldLine entry = it->second;
    _heldLines.erase(it);
    if (entry.owned && committed(entry.core, entry.txid)) {
        violate(ViolationKind::HeldReleaseOrdering, entry.core,
                entry.txid, line_addr,
                "crash discarded a held entry of a committed "
                "transaction (release ordering broken)");
    }
}

void
PersistencyChecker::onLogPersist(Addr rec_addr,
                                 const log::LogRecord &record)
{
    (void)rec_addr;
    ++_counters.logPersists;
    ++_lsnCopies[record.lsn];
    TxShadow *tx = latestTx(record.tid, record.txid);
    if (!tx)
        return;
    switch (record.kind) {
      case log::LogRecord::Kind::Undo:
      case log::LogRecord::Kind::UndoRedo:
        tx->loggedUndo.insert(record.dataAddr);
        break;
      case log::LogRecord::Kind::Commit:
        tx->marker = true;
        break;
      case log::LogRecord::Kind::Redo:
      case log::LogRecord::Kind::IdTuple:
      case log::LogRecord::Kind::Checkpoint:
        break;
    }
}

void
PersistencyChecker::onLogTruncate(unsigned tid)
{
    // The thread's area is empty now, and every LSN in its range names
    // a record of that area.
    Addr base = addr_map::logAreaBase(tid);
    _lsnCopies.erase(_lsnCopies.lower_bound(base),
                     _lsnCopies.lower_bound(base + addr_map::logAreaBytes));
}

// --- Invariant 6: no live record reclaimed ------------------------------

bool
PersistencyChecker::recordIsDead(const log::LogRecord &rec) const
{
    if (rec.kind == log::LogRecord::Kind::Checkpoint)
        return true;
    if (!committed(rec.tid, rec.txid))
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
    std::optional<Word> adr = mc::adrValue(*_domain, rec.dataAddr);
    if (!adr)
        return false;
    if (*adr == committed_val->second)
        return true;
    // The ADR holds an open transaction's value over the committed
    // one: recovery revokes it to its pre-transaction value, which is
    // the committed value, if the transaction's undo is durable.
    const TxShadow *tx = pendingWriter(rec.dataAddr);
    return tx &&
           tx->writes.at(rec.dataAddr).first == committed_val->second &&
           undoCoverage(*tx, rec.dataAddr);
}

void
PersistencyChecker::onLogRecordDrop(Addr rec_addr,
                                    const log::LogRecord &record,
                                    log::LogDropReason reason)
{
    (void)rec_addr;
    ++_counters.logRecordDrops;
    auto c = _lsnCopies.find(record.lsn);
    if (reason == log::LogDropReason::Migrated) {
        // The migrated copy must already be durable: with this original
        // still counted, its LSN must have at least two durable copies.
        if (c == _lsnCopies.end() || c->second < 2) {
            violate(ViolationKind::LiveRecordReclaimed, record.tid,
                    record.txid, record.dataAddr,
                    "migration dropped a record before its copy became "
                    "durable");
        }
    } else if (!recordIsDead(record)) {
        const char *by = reason == log::LogDropReason::Checkpointed
                             ? "checkpoint"
                         : reason == log::LogDropReason::Reclaimed
                             ? "segment reclaim"
                             : "head move";
        violate(ViolationKind::LiveRecordReclaimed, record.tid,
                record.txid, record.dataAddr,
                std::string(by) +
                    " dropped a record still needed for recovery");
    }
    if (c != _lsnCopies.end() && --c->second == 0)
        _lsnCopies.erase(c);
}

// --- Invariant 7: checkpoint image --------------------------------------

void
PersistencyChecker::onCheckpointWord(Addr word_addr, Word value)
{
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

// --- Invariant 2: commit durability -------------------------------------

void
PersistencyChecker::checkCommit(const TxShadow &tx)
{
    switch (_scheme) {
      case SchemeKind::Base:
      case SchemeKind::Fwb:
      case SchemeKind::MorLog:
      case SchemeKind::SwEadr: {
        // WAL commit: every changed word's undo/redo record and the
        // commit marker must have been durable before done() fired.
        for (const auto &[addr, vals] : tx.writes) {
            if (vals.first == vals.second)
                continue;
            if (!tx.loggedUndo.count(addr)) {
                violate(ViolationKind::CommitNotDurable, tx.core,
                        tx.txid, addr,
                        "Tx_end completed without a durable log record "
                        "for this word");
            }
        }
        if (!tx.marker) {
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
            if (mc::adrValue(*_domain, addr) != vals.second) {
                violate(ViolationKind::CommitNotDurable, tx.core,
                        tx.txid, addr,
                        "Tx_end completed but the word's final value "
                        "never reached the ADR domain");
            }
        }
        for (const auto &[line, entry] : _heldLines) {
            if (entry.owned && entry.core == tx.core &&
                entry.txid == tx.txid) {
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
        // buffer / staged), flush-bit-delivered, or in the ADR domain.
        const auto &staged = _domain->silo.at(tx.core).staged;
        for (const auto &[addr, vals] : tx.writes) {
            if (vals.first == vals.second)
                continue;
            Word final_val = vals.second;
            auto staged_final = [&](const silo_scheme::PendingUpdate &p) {
                return p.addr == addr && p.newData == final_val;
            };
            if (inSchemeBuffer(tx, addr) ||
                std::ranges::any_of(staged, staged_final))
                continue;
            auto fb = _flushBitDelivered.find(addr);
            if (fb != _flushBitDelivered.end() &&
                fb->second == vals.second)
                continue;
            if (mc::adrValue(*_domain, addr) == vals.second)
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
PersistencyChecker::onRecoveryComplete()
{
    const PersistentDomain &domain = *_domain;
    // Oracle: initial values + the stores of every durably committed
    // transaction. A commit in flight at the crash counts if its
    // commit marker is durable.
    std::map<Addr, Word> expected = _initialValue;
    for (const auto &[addr, value] : _committedImage)
        expected[addr] = value;
    for (unsigned core = 0; core < _numCores; ++core) {
        const TxShadow &tx = _txs[core];
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
