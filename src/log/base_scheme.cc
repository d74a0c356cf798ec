#include "log/base_scheme.hh"

namespace silo::log
{

BaseScheme::BaseScheme(SchemeContext ctx)
    : LoggingScheme(std::move(ctx)), _cores(_ctx.cfg.numCores)
{
}

void
BaseScheme::store(unsigned core, Addr addr, Word old_val, Word new_val,
                  Callback done)
{
    CoreState &cs = _cores[core];
    ++cs.outstanding;

    LogRecord rec;
    rec.kind = LogRecord::Kind::UndoRedo;
    rec.tid = std::uint8_t(core);
    rec.txid = txidOf(core);
    rec.dataAddr = addr;
    rec.oldData = old_val;
    rec.newData = new_val;

    // Log first, then force the updated cacheline to PM (the per-write
    // ordering of Fig. 3's undo+redo baseline).
    switch (_ctx.cfg.mutation) {
      case MutationKind::DropUndoLog:
        // Seeded bug: data reaches PM with no undo record at all.
        _ctx.hierarchy.flushLine(core, lineAlign(addr), false,
                                 [this, core] { opFinished(core); });
        break;
      case MutationKind::ReorderLogData:
        // Seeded bug: the flush races ahead of its log record.
        _ctx.hierarchy.flushLine(core, lineAlign(addr), false, [] {});
        writeLogWithRetry(core, rec,
                          [this, core] { opFinished(core); });
        break;
      // All remaining mutation kinds target other schemes' windows
      // (held lines, flush bits, crash drains); Base runs them
      // unmutated.
      default:
        writeLogWithRetry(core, rec, [this, core, addr] {
            _ctx.hierarchy.flushLine(core, lineAlign(addr), false,
                                     [this, core] { opFinished(core); });
        });
        break;
    }

    if (cs.outstanding <= maxOutstanding)
        done();
    else
        cs.stalledStores.push_back(std::move(done));
}

void
BaseScheme::opFinished(unsigned core)
{
    CoreState &cs = _cores[core];
    --cs.outstanding;
    if (!cs.stalledStores.empty() && cs.outstanding < maxOutstanding) {
        Callback done = cs.stalledStores.take_front();
        done();
    }
    if (cs.outstanding == 0 && cs.pendingCommit)
        finishCommit(core);
}

void
BaseScheme::finishCommit(unsigned core)
{
    CoreState &cs = _cores[core];
    Callback done = std::move(cs.pendingCommit);
    if (_ctx.cfg.mutation == MutationKind::SkipCommitMarker) {
        // Seeded bug: Tx_end completes without a durable commit marker.
        _ctx.domain.logs.truncate(core);
        done();
        return;
    }
    cs.committing = std::move(done);
    writeLogWithRetry(core, commitMarker(core), [this, core] {
        // All data and logs are durable: the log can truncate (a
        // head-pointer update, no PM write).
        _ctx.domain.logs.truncate(core);
        Callback committed = std::move(_cores[core].committing);
        committed();
    });
}

void
BaseScheme::txEnd(unsigned core, Callback done)
{
    CoreState &cs = _cores[core];
    cs.pendingCommit = std::move(done);
    if (cs.outstanding == 0)
        finishCommit(core);
}

} // namespace silo::log
