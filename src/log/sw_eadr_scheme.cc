#include "log/sw_eadr_scheme.hh"

namespace silo::log
{

SwEadrScheme::SwEadrScheme(SchemeContext ctx)
    : LoggingScheme(std::move(ctx))
{
    _stats.crashFlushBytes.reset();
}

void
SwEadrScheme::writeLogThroughCache(unsigned core,
                                   const LogRecord &record,
                                   std::function<void()> done)
{
    Addr rec_addr = appendLog(core, record);

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
    _ctx.hierarchy.access(core, rec_addr, true,
                          admitted(core, record, std::move(done)));
}

void
SwEadrScheme::store(unsigned core, Addr addr, Word old_val,
                    Word new_val, std::function<void()> done)
{
    LogRecord rec;
    rec.kind = LogRecord::Kind::UndoRedo;
    rec.tid = std::uint8_t(core);
    rec.txid = txidOf(core);
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
    // commit record makes the transaction's outcome durable the moment
    // it is written.
    writeLogThroughCache(core, commitMarker(core), std::move(done));
}

void
SwEadrScheme::crash()
{
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

} // namespace silo::log
