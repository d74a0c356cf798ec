#include "log/morlog_scheme.hh"

#include "log/wal_recovery.hh"

namespace silo::log
{

MorLogScheme::MorLogScheme(SchemeContext ctx)
    : LoggingScheme(std::move(ctx)), _cores(_ctx.cfg.numCores)
{
}

void
MorLogScheme::txBegin(unsigned core, std::uint16_t txid)
{
    _cores[core].txid = txid;
    _cores[core].lastCommitted = false;
}

void
MorLogScheme::flushEntry(unsigned core, BufEntry entry,
                         std::function<void()> on_accept)
{
    LogRecord rec;
    rec.kind = LogRecord::Kind::UndoRedo;
    rec.tid = std::uint8_t(core);
    rec.txid = entry.txid;
    rec.dataAddr = entry.addr;
    rec.oldData = entry.oldData;
    rec.newData = entry.newData;
    writeLogWithRetry(core, rec, std::move(on_accept));
}

void
MorLogScheme::eraseEntry(unsigned core, const BufEntry &entry)
{
    auto &buffer = _cores[core].buffer;
    for (auto it = buffer.begin(); it != buffer.end(); ++it) {
        if (it->txid == entry.txid && it->addr == entry.addr &&
            it->flushing) {
            buffer.erase(it);
            return;
        }
    }
}

void
MorLogScheme::store(unsigned core, Addr addr, Word old_val,
                    Word new_val, std::function<void()> done)
{
    CoreState &cs = _cores[core];

    // MorLog's morphing eliminates unnecessary log data: a store that
    // does not change the word needs no log at all.
    if (old_val == new_val) {
        done();
        return;
    }

    // Merge with an existing entry of the same word in this tx —
    // morphing away the intermediate redo data.
    for (auto &e : cs.buffer) {
        if (e.txid == cs.txid && e.addr == addr && !e.flushing) {
            e.newData = new_val;
            ++_merged;
            done();
            return;
        }
    }

    if (cs.buffer.size() >= bufferCapacity) {
        // Buffer full: push the oldest idle entry out to the log
        // region. It stays resident (flushing) until accepted so a
        // crash in between still finds it in the ADR buffer.
        for (auto &e : cs.buffer) {
            if (!e.flushing) {
                e.flushing = true;
                BufEntry copy = e;
                flushEntry(core, copy, [this, core, copy] {
                    eraseEntry(core, copy);
                });
                break;
            }
        }
    }
    cs.buffer.push_back(BufEntry{cs.txid, addr, old_val, new_val});
    if (_ctx.checker)
        _ctx.checker->noteAdrUndo(core, cs.txid, addr, old_val);
    done();
}

void
MorLogScheme::commitFlushFinished(unsigned core)
{
    CoreState &cs = _cores[core];
    if (--cs.commitOutstanding > 0)
        return;

    LogRecord marker;
    marker.kind = LogRecord::Kind::Commit;
    marker.tid = std::uint8_t(core);
    marker.txid = cs.txid;
    auto done = std::move(cs.pendingCommit);
    cs.pendingCommit = nullptr;
    writeLogWithRetry(core, marker, [this, core,
                                     done = std::move(done)] {
        _cores[core].lastCommitted = true;
        done();
    });
}

void
MorLogScheme::txEnd(unsigned core, std::function<void()> done)
{
    CoreState &cs = _cores[core];
    cs.pendingCommit = std::move(done);

    // MorLog's ordering constraint: all logs of the transaction must
    // be in the PM log region before the commit completes. Entries
    // stay in the ADR buffer until each write is accepted.
    std::vector<BufEntry> to_flush;
    for (auto &e : cs.buffer) {
        if (e.txid == cs.txid && !e.flushing) {
            e.flushing = true;
            to_flush.push_back(e);
        }
    }

    cs.commitOutstanding = unsigned(to_flush.size()) + 1;
    for (const auto &entry : to_flush) {
        flushEntry(core, entry, [this, core, entry] {
            eraseEntry(core, entry);
            commitFlushFinished(core);
        });
    }
    commitFlushFinished(core);   // the +1 guard
}

void
MorLogScheme::crash()
{
    flushInFlightLogs();
    // The MC log buffer is in the ADR domain: its entries flush to the
    // log region on power failure.
    for (unsigned core = 0; core < _cores.size(); ++core) {
        CoreState &cs = _cores[core];
        for (const auto &e : cs.buffer) {
            LogRecord rec;
            rec.kind = LogRecord::Kind::UndoRedo;
            rec.tid = std::uint8_t(core);
            rec.txid = e.txid;
            rec.dataAddr = e.addr;
            rec.oldData = e.oldData;
            rec.newData = e.newData;
            Addr addr = _ctx.logs.allocate(core, rec.sizeBytes());
            _ctx.logs.persist(addr, rec);
            _stats.crashFlushBytes += rec.sizeBytes();
        }
        cs.buffer.clear();
    }
}

bool
MorLogScheme::lastTxCommittedAtCrash(unsigned core) const
{
    return _cores[core].lastCommitted;
}

void
MorLogScheme::recover(WordStore &media)
{
    walRecover(_ctx.logs, _ctx.cfg.numCores, media);
}

} // namespace silo::log
