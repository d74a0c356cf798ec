#include "silo/silo_scheme.hh"

#include <algorithm>

namespace silo::silo_scheme
{

using log::LogRecord;

SiloScheme::SiloScheme(log::SchemeContext ctx)
    : LoggingScheme(std::move(ctx)), _cores(_ctx.cfg.numCores)
{
    _ctx.mc.setEvictionObserver(
        [this](Addr line) { onCachelineEvicted(line); });
}

trace::Tracer::TrackId
SiloScheme::coreTrack(unsigned core)
{
    // Only called under an eq.tracer() guard; the tracer dedups the
    // (process, thread) pair, so the lazy lookup is safe in hot paths.
    return _ctx.eq.tracer()->track("scheme",
                                   "silo-core" + std::to_string(core));
}

void
SiloScheme::beginTx(unsigned core)
{
    CoreState &cs = _cores[core];
    cs.txStart = _ctx.eq.now();
    cs.txTotalLogs = 0;
    cs.txAppends = 0;
}

void
SiloScheme::onCachelineEvicted(Addr line)
{
    // "Once the write pending queue receives an evicted cacheline, the
    // log controller checks if there are logs that record the updates
    // in it" — all comparators match the line address in parallel.
    if (!_ctx.cfg.siloFlushBit || !addr_map::inDataRegion(line))
        return;
    unsigned owner = addr_map::dataArenaOwner(line);
    if (owner >= _cores.size())
        return;
    bool any_line = _ctx.cfg.mutation == MutationKind::StaleFlushBit;
    for (auto &e : battery(owner).buffer) {
        if (!e.committed && !e.flushBit &&
            (any_line || lineAlign(e.addr) == line)) {
            e.flushBit = true;
            ++_reduction.flushBitsSet;
            if (_ctx.checker)
                _ctx.checker->noteFlushBit(owner, e.txid, e.addr,
                                           e.newData);
        }
    }
}

void
SiloScheme::handleOverflow(unsigned core)
{
    CoreBattery &b = battery(core);
    unsigned batch = overflowBatch();

    while (batch > 0 && !b.buffer.empty()) {
        // FIFO: evict from the front.
        LogBufferEntry entry = b.buffer.front();
        b.buffer.pop_front();
        --batch;

        if (entry.committed) {
            // Post-commit leftover: its new data still needs to reach
            // the data region unless a cacheline eviction covered it.
            // Stage it so a crash while the write awaits a WPQ slot
            // still finds the committed value in the battery domain.
            if (!entry.flushBit) {
                ++_reduction.inPlaceUpdates;
                stageInPlace(core, entry.txid, entry.addr,
                             entry.newData, 0);
            }
            continue;
        }

        // Uncommitted entry: flush the undo log to guarantee
        // atomicity; if the flush-bit is clear, also write the new
        // data to guarantee durability (§III-F). The new data is
        // ordered after the undo record's acceptance.
        ++_reduction.overflows;
        LogRecord undo;
        undo.kind = LogRecord::Kind::Undo;
        undo.tid = std::uint8_t(core);
        undo.txid = entry.txid;
        undo.flushBit = true;   // recorded as 1 in the PM log region
        undo.dataAddr = entry.addr;
        undo.oldData = entry.oldData;

        bool write_data = !entry.flushBit;
        Addr rec_addr = appendLog(core, undo);
        // The new data stays in the battery domain (staged, not yet
        // committed) until the WPQ accepts it — "they are not lost in
        // the log buffer" (§III-F) — so a crash after the commit but
        // before this write completes still recovers the word via a
        // redo flush. The issue waits for the undo record's acceptance.
        if (write_data)
            stage(core, entry.txid, entry.addr, entry.newData, false);
        Addr data_addr = entry.addr;
        persistLog(rec_addr, undo, [this, core, write_data,
                                    data_addr] {
            if (write_data)
                issueInPlace(core, data_addr);
        });
    }
}

void
SiloScheme::store(unsigned core, Addr addr, Word old_val, Word new_val,
                  Callback done)
{
    CoreState &cs = _cores[core];
    CoreBattery &b = battery(core);
    std::uint16_t txid = txidOf(core);
    ++cs.txTotalLogs;

    // Log ignorance: a store that does not change the word produces no
    // log entry (§III-C).
    if (_ctx.cfg.siloLogIgnorance && old_val == new_val) {
        ++_reduction.ignored;
        done();
        return;
    }

    // Log merging: the 64-bit comparators match the address against
    // every entry in parallel (§III-C).
    if (_ctx.cfg.siloLogMerging) {
        for (auto &e : b.buffer) {
            if (!e.committed && e.txid == txid && e.addr == addr) {
                e.newData = new_val;
                // The merged value supersedes whatever an earlier
                // eviction delivered: a set flush-bit would make the
                // crash flush (and drainCommitted) skip this entry and
                // lose the new data.
                e.flushBit = false;
                ++_reduction.merged;
                done();
                return;
            }
        }
    }

    LogBufferEntry entry;
    entry.txid = txid;
    entry.addr = addr;
    entry.oldData = old_val;
    entry.newData = new_val;
    b.buffer.push_back(entry);
    ++cs.txAppends;

    if (b.buffer.size() > _ctx.cfg.logBufferEntries)
        handleOverflow(core);

    // Sending the entry to the buffer is off the store's critical path.
    done();
}

void
SiloScheme::drainCommitted(unsigned core)
{
    // The log controller reads committed entries out of the buffer at
    // the buffer's access latency and "simultaneously flushes the new
    // data" (§III-D): issues are paced by the read latency but do not
    // wait on each other's WPQ acceptance.
    auto &buffer = battery(core).buffer;
    Cycles delay = 0;
    for (auto it = buffer.begin(); it != buffer.end();) {
        if (!it->committed) {
            ++it;
            continue;
        }
        if (it->flushBit &&
            _ctx.cfg.mutation != MutationKind::DoubleInPlace) {
            // The evicted cacheline already carries this word.
            it = buffer.erase(it);
            continue;
        }
        // Deallocate the buffer slot; the new data stages in the
        // battery domain until the ADR queue accepts it.
        LogBufferEntry entry = *it;
        it = buffer.erase(it);
        ++_reduction.inPlaceUpdates;
        delay += _ctx.cfg.logBufferLatency;
        stageInPlace(core, entry.txid, entry.addr, entry.newData, delay);
    }
}

bool
SiloScheme::stage(unsigned core, std::uint16_t txid, Addr addr,
                  Word value, bool committed)
{
    auto &staged = battery(core).staged;
    for (auto &p : staged) {
        if (p.addr == addr) {
            // A newer value supersedes the staged one; the already
            // issued write delivers the latest value when it is
            // accepted (see issueInPlace).
            p.txid = txid;
            p.newData = value;
            p.committed = committed;
            return false;
        }
    }
    staged.push_back(
        PendingUpdate{txid, addr, value, committed, _ctx.eq.now()});
    return true;
}

void
SiloScheme::stageInPlace(unsigned core, std::uint16_t txid, Addr addr,
                         Word value, Cycles delay)
{
    if (!stage(core, txid, addr, value, true))
        return;
    _ctx.eq.scheduleAfter(delay,
                          [this, core, addr] { issueInPlace(core, addr); },
                          EventQueue::prioDefault, prof::Tag::LogScheme);
}

void
SiloScheme::issueInPlace(unsigned core, Addr addr)
{
    auto &staged = battery(core).staged;
    auto it = std::find_if(staged.begin(), staged.end(),
                           [addr](const PendingUpdate &p) {
                               return p.addr == addr;
                           });
    if (it == staged.end())
        return;   // a crash cleared the stage
    Word value = it->newData;
    std::uint32_t w = _inPlaceWrites.park(InPlaceWrite{core, addr, value});
    _ctx.mc.writeWord(addr, value, [this, w] { inPlaceAccepted(w); });
}

void
SiloScheme::inPlaceAccepted(std::uint32_t w)
{
    const InPlaceWrite write = _inPlaceWrites.take(w);
    auto &staged = battery(write.core).staged;
    auto it = std::find_if(staged.begin(), staged.end(),
                           [&write](const PendingUpdate &p) {
                               return p.addr == write.addr;
                           });
    if (it == staged.end())
        return;
    if (it->newData == write.value) {
        // The in-place update left the battery domain for the ADR
        // queue: the committed word is now durably persisted.
        if (auto *tr = _ctx.eq.tracer()) {
            tr->completeSpan(coreTrack(write.core), "persist",
                             it->stagedAt, _ctx.eq.now());
        }
        staged.erase(it);
        return;
    }
    // Superseded while the write was in flight: the word on the ADR
    // queue is stale, issue the newer value after it.
    issueInPlace(write.core, write.addr);
}

void
SiloScheme::txEnd(unsigned core, Callback done)
{
    CoreState &cs = _cores[core];

    _reduction.totalLogsPerTx.sample(double(cs.txTotalLogs));
    _reduction.remainingLogsPerTx.sample(double(cs.txAppends));
    _reduction.maxRemainingLogs =
        std::max(_reduction.maxRemainingLogs, cs.txAppends);

    // Speculation window: from Tx_begin until the commit request, the
    // transaction's logs exist only in the battery-backed buffer.
    if (auto *tr = _ctx.eq.tracer()) {
        tr->completeSpan(coreTrack(core), "speculate", cs.txStart,
                         _ctx.eq.now());
    }
    cs.commitRequest = _ctx.eq.now();
    cs.commitDone = std::move(done);

    // Commit: the log generator notifies the log controller; once the
    // ACK returns, Tx_end completes — no PM write is on this path
    // (§III-D). The commit state change is atomic with the ACK.
    _ctx.eq.scheduleAfter(commitAckCycles,
                          [this, core] { commitAcked(core); },
                          EventQueue::prioDefault, prof::Tag::LogScheme);
}

void
SiloScheme::commitAcked(unsigned core)
{
    CoreState &cs = _cores[core];
    if (auto *tr = _ctx.eq.tracer()) {
        tr->completeSpan(coreTrack(core), "validate", cs.commitRequest,
                         _ctx.eq.now());
    }
    std::uint16_t txid = txidOf(core);
    CoreBattery &b = battery(core);
    for (auto &e : b.buffer) {
        if (e.txid == txid)
            e.committed = true;
    }
    // Words this transaction staged on overflow are committed too: the
    // bit, not a txid comparison, tells the crash flush so, which stays
    // right once the 16-bit txid wraps.
    for (auto &p : b.staged) {
        if (p.txid == txid)
            p.committed = true;
    }
    // Overflowed undo logs of this transaction are obsolete: the log
    // truncates via the on-chip head register (no PM write).
    _ctx.domain.logs.truncate(core);
    drainCommitted(core);
    Callback done = std::move(cs.commitDone);
    done();
}

std::uint64_t
SiloScheme::batteryFlush(std::vector<CoreBattery> &cores,
                         log::LogRegionStore &logs, MutationKind mutation)
{
    // Battery-backed selective log flushing (§III-G).
    std::uint64_t bytes = 0;
    std::set<std::pair<std::uint8_t, std::uint16_t>> committed_ids;
    auto flush_redo = [&](unsigned core, std::uint16_t txid, Addr addr,
                          Word new_data) {
        LogRecord redo;
        redo.kind = LogRecord::Kind::Redo;
        redo.tid = std::uint8_t(core);
        redo.txid = txid;
        redo.flushBit = false;
        redo.dataAddr = addr;
        redo.newData = new_data;
        bytes += log::persistAtCrash(logs, redo);
        committed_ids.insert({std::uint8_t(core), txid});
    };

    for (unsigned core = 0; core < cores.size(); ++core) {
        CoreBattery &b = cores[core];
        for (const auto &e : b.buffer) {
            if (!e.committed) {
                if (mutation == MutationKind::SkipCrashUndoFlush)
                    continue;
                // Uncommitted: flush the undo log to revoke partial
                // updates; the new data is discarded on chip.
                LogRecord undo;
                undo.kind = LogRecord::Kind::Undo;
                undo.tid = std::uint8_t(core);
                undo.txid = e.txid;
                undo.flushBit = true;
                undo.dataAddr = e.addr;
                undo.oldData = e.oldData;
                bytes += log::persistAtCrash(logs, undo);
            } else if (!e.flushBit) {
                // Committed but not yet in-place updated: flush the
                // redo log so recovery can replay it.
                flush_redo(core, e.txid, e.addr, e.newData);
            }
        }
        b.buffer.clear();

        // Staged in-place updates whose WPQ write had not been
        // accepted: committed ones need a redo flush; for uncommitted
        // ones (overflow path) the undo log covers atomicity and the
        // new data is simply discarded.
        for (const auto &p : b.staged) {
            if (p.committed)
                flush_redo(core, p.txid, p.addr, p.newData);
        }
        b.staged.clear();
    }

    // One ID tuple per committed transaction with flushed redo logs.
    for (const auto &[tid, txid] : committed_ids) {
        LogRecord tuple;
        tuple.kind = LogRecord::Kind::IdTuple;
        tuple.tid = tid;
        tuple.txid = txid;
        bytes += log::persistAtCrash(logs, tuple);
    }
    return bytes;
}

} // namespace silo::silo_scheme
