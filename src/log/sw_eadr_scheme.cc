#include "log/sw_eadr_scheme.hh"

#include "log/wal_recovery.hh"

namespace silo::log
{

SwEadrScheme::SwEadrScheme(SchemeContext ctx)
    : LoggingScheme(std::move(ctx)), _cores(_ctx.cfg.numCores)
{
    _stats.crashFlushBytes.reset();
}

void
SwEadrScheme::txBegin(unsigned core, std::uint16_t txid)
{
    _cores[core].txid = txid;
    _cores[core].lastCommitted = false;
}

void
SwEadrScheme::writeLogThroughCache(unsigned core, LogRecord record,
                                   std::function<void()> done)
{
    Addr rec_addr = _ctx.logs.allocate(core, record.sizeBytes());
    ++_stats.logWrites;
    _stats.logBytes += record.sizeBytes();
    if (_ctx.lifecycle) {
        // Durability (the persist below) is never deferred; admission
        // backpressure only gates the store's completion. Commit
        // markers bypass the gate (see writeLogWithRetry): the marker
        // is already durable, so deferring the commit completion would
        // only open a window where the crash oracle and recovery
        // disagree about the transaction's outcome.
        _ctx.lifecycle->noteAppend(core, record.sizeBytes());
        if (record.kind != LogRecord::Kind::Commit) {
            done = [lc = _ctx.lifecycle, core,
                    inner = std::move(done)]() mutable {
                lc->gate(core, std::move(inner));
            };
        }
    }

    // The persistent cache is the durability point: the record is
    // durable the moment its store completes.
    _ctx.logs.persist(rec_addr, record);

    // Fill the log line's words with distinct content so the eventual
    // write-back programs real bits in the media (traffic accounting).
    Addr first = wordAlign(rec_addr);
    Addr last = wordAlign(rec_addr + record.sizeBytes() - 1);
    for (Addr a = first; a <= last; a += wordBytes)
        _ctx.setValue(a, _contentStamp++);

    // One cache write per entry: this is the pollution the paper
    // describes — appended logs always land in fresh lines.
    ++_logCacheWrites;
    _ctx.hierarchy.access(core, rec_addr, true, std::move(done));
}

void
SwEadrScheme::store(unsigned core, Addr addr, Word old_val,
                    Word new_val, std::function<void()> done)
{
    CoreState &cs = _cores[core];
    LogRecord rec;
    rec.kind = LogRecord::Kind::UndoRedo;
    rec.tid = std::uint8_t(core);
    rec.txid = cs.txid;
    rec.dataAddr = addr;
    rec.oldData = old_val;
    rec.newData = new_val;

    // Software logging: the log store is program code on the critical
    // path (Fig. 1a without the clwb/sfence).
    writeLogThroughCache(core, rec, std::move(done));
}

void
SwEadrScheme::txEnd(unsigned core, std::function<void()> done)
{
    // Logs and data are already persistent in the eADR cache; the
    // commit record makes the transaction's outcome durable.
    CoreState &cs = _cores[core];
    LogRecord marker;
    marker.kind = LogRecord::Kind::Commit;
    marker.tid = std::uint8_t(core);
    marker.txid = cs.txid;
    writeLogThroughCache(core, marker, std::move(done));
    // The marker became durable in the persistent cache the moment it
    // was written (inside writeLogThroughCache): if a crash lands
    // before done() fires, recovery will — correctly — treat the
    // transaction as committed.
    cs.lastCommitted = true;
}

void
SwEadrScheme::crash()
{
    flushInFlightLogs();
    // eADR: the platform battery flushes every dirty cacheline to PM
    // (Table IV's eADR flush). Data lines carry their architectural
    // values; log lines' records are already in the log region store.
    for (Addr line : _ctx.hierarchy.allDirtyLines()) {
        _stats.crashFlushBytes += lineBytes;
        if (!addr_map::inDataRegion(line))
            continue;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            Addr a = line + Addr(w) * wordBytes;
            _ctx.pm.media().store(a, _ctx.valueOf(a));
        }
    }
}

bool
SwEadrScheme::lastTxCommittedAtCrash(unsigned core) const
{
    return _cores[core].lastCommitted;
}

void
SwEadrScheme::recover(WordStore &media)
{
    walRecover(_ctx.logs, _ctx.cfg.numCores, media);
}

} // namespace silo::log
