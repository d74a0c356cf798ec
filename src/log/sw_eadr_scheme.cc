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
                                   Callback done)
{
    Addr rec_addr = appendLog(core, record);

    // The persistent cache is the durability point: the record is
    // durable the moment its store completes.
    _ctx.domain.logs.persist(rec_addr, record);

    // Fill the log line's words with distinct content so the eventual
    // write-back programs real bits in the media (traffic accounting).
    Addr first = wordAlign(rec_addr);
    Addr last = wordAlign(rec_addr + record.sizeBytes() - 1);
    for (Addr a = first; a <= last; a += wordBytes)
        _ctx.values.store(a, _contentStamp++);

    // One cache write per entry: this is the pollution the paper
    // describes — appended logs always land in fresh lines.
    ++_logCacheWrites;
    _ctx.hierarchy.access(core, rec_addr, true,
                          admitted(core, record, std::move(done)));
}

void
SwEadrScheme::store(unsigned core, Addr addr, Word old_val,
                    Word new_val, Callback done)
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
SwEadrScheme::txEnd(unsigned core, Callback done)
{
    // Logs and data are already persistent in the eADR cache; the
    // commit record makes the transaction's outcome durable the moment
    // it is written.
    writeLogThroughCache(core, commitMarker(core), std::move(done));
}

void
SwEadrScheme::captureAtCrash(PersistentDomain &domain) const
{
    // Data lines carry their architectural values; log lines' records
    // are already in the log region store. Two walks and no line list:
    // a full-size machine holds tens of thousands of dirty lines, and
    // the capture is sized once.
    EadrCaches &caches = domain.eadr;
    caches.dirtyLines = 0;
    std::size_t data_lines = 0;
    _ctx.hierarchy.forEachDirtyLine([&](Addr line) {
        ++caches.dirtyLines;
        data_lines += addr_map::inDataRegion(line);
    });
    caches.dataLines.clear();
    caches.dataLines.reserve(data_lines);
    _ctx.hierarchy.forEachDirtyLine([&](Addr line) {
        if (!addr_map::inDataRegion(line))
            return;
        EadrLine &data = caches.dataLines.emplace_back();
        data.line = line;
        for (unsigned w = 0; w < wordsPerLine; ++w)
            data.values[w] = _ctx.values.load(line + Addr(w) * wordBytes);
    });
}

std::uint64_t
SwEadrScheme::batteryFlush(EadrCaches &caches, WordStore &media)
{
    // eADR: the platform battery flushes every dirty cacheline to PM
    // (Table IV's eADR flush).
    for (const EadrLine &data : caches.dataLines) {
        for (unsigned w = 0; w < wordsPerLine; ++w)
            media.store(data.line + Addr(w) * wordBytes, data.values[w]);
    }
    std::uint64_t bytes = caches.dirtyLines * lineBytes;
    caches = EadrCaches{};   // the battery is drained: free the lines
    return bytes;
}

} // namespace silo::log
