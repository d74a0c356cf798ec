#include "log/morlog_scheme.hh"

namespace silo::log
{

MorLogScheme::MorLogScheme(SchemeContext ctx)
    : LoggingScheme(std::move(ctx)), _cores(_ctx.cfg.numCores)
{
}

LogRecord
MorLogScheme::record(unsigned core, const MorLogEntry &entry)
{
    LogRecord rec;
    rec.kind = LogRecord::Kind::UndoRedo;
    rec.tid = std::uint8_t(core);
    rec.txid = entry.txid;
    rec.dataAddr = entry.addr;
    rec.oldData = entry.oldData;
    rec.newData = entry.newData;
    return rec;
}

void
MorLogScheme::eraseEntry(unsigned core, std::uint16_t txid, Addr addr)
{
    auto &buf = buffer(core);
    for (auto it = buf.begin(); it != buf.end(); ++it) {
        if (it->txid == txid && it->addr == addr && it->flushing) {
            buf.erase(it);
            return;
        }
    }
}

void
MorLogScheme::store(unsigned core, Addr addr, Word old_val,
                    Word new_val, Callback done)
{
    auto &buf = buffer(core);
    std::uint16_t txid = txidOf(core);

    // MorLog's morphing eliminates unnecessary log data: a store that
    // does not change the word needs no log at all.
    if (old_val == new_val) {
        done();
        return;
    }

    // Merge with an existing entry of the same word in this tx —
    // morphing away the intermediate redo data.
    for (auto &e : buf) {
        if (e.txid == txid && e.addr == addr && !e.flushing) {
            e.newData = new_val;
            ++_merged;
            done();
            return;
        }
    }

    if (buf.size() >= bufferCapacity) {
        // Buffer full: push the oldest idle entry out to the log
        // region. It stays resident (flushing) until accepted so a
        // crash in between still finds it in the ADR buffer.
        for (auto &e : buf) {
            if (!e.flushing) {
                e.flushing = true;
                writeLogWithRetry(core, record(core, e),
                                  [this, core, txid = e.txid,
                                   addr = e.addr] {
                    eraseEntry(core, txid, addr);
                });
                break;
            }
        }
    }
    buf.push_back(MorLogEntry{txid, addr, old_val, new_val});
    done();
}

void
MorLogScheme::commitFlushFinished(unsigned core)
{
    CoreState &cs = _cores[core];
    if (--cs.commitOutstanding > 0)
        return;

    Callback done = std::move(cs.pendingCommit);
    writeLogWithRetry(core, commitMarker(core), std::move(done));
}

void
MorLogScheme::txEnd(unsigned core, Callback done)
{
    CoreState &cs = _cores[core];
    cs.pendingCommit = std::move(done);

    // MorLog's ordering constraint: all logs of the transaction must
    // be in the PM log region before the commit completes. Entries
    // stay in the ADR buffer until each write is accepted. The writes
    // are issued from a snapshot: an accepted one erases its entry.
    _toFlush.clear();
    std::uint16_t txid = txidOf(core);
    for (auto &e : buffer(core)) {
        if (e.txid == txid && !e.flushing) {
            e.flushing = true;
            _toFlush.push_back(e);
        }
    }

    cs.commitOutstanding = unsigned(_toFlush.size()) + 1;
    for (const auto &entry : _toFlush) {
        writeLogWithRetry(core, record(core, entry),
                          [this, core, txid = entry.txid,
                           addr = entry.addr] {
            eraseEntry(core, txid, addr);
            commitFlushFinished(core);
        });
    }
    commitFlushFinished(core);   // the +1 guard
}

std::uint64_t
MorLogScheme::batteryFlush(std::vector<std::deque<MorLogEntry>> &buffers,
                           LogRegionStore &logs)
{
    // The MC log buffer is in the ADR domain: its entries flush to the
    // log region on power failure.
    std::uint64_t bytes = 0;
    for (unsigned core = 0; core < buffers.size(); ++core) {
        for (const auto &e : buffers[core])
            bytes += persistAtCrash(logs, record(core, e));
        buffers[core].clear();
    }
    return bytes;
}

} // namespace silo::log
