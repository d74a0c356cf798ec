#include "log/fwb_scheme.hh"

namespace silo::log
{

FwbScheme::FwbScheme(SchemeContext ctx)
    : LoggingScheme(std::move(ctx)), _cores(_ctx.cfg.numCores)
{
    scheduleWalk();
}

void
FwbScheme::scheduleWalk()
{
    _ctx.eq.scheduleAfter(_ctx.cfg.fwbIntervalCycles, [this] {
        // Force-write-back every line dirty now. Undo data in the logs
        // keeps atomicity even when uncommitted lines reach PM.
        walk(_walks.park(Walk{_ctx.hierarchy.allDirtyLines()}));
        scheduleWalk();
    }, EventQueue::prioDefault, prof::Tag::LogScheme);
}

void
FwbScheme::walk(std::uint32_t w)
{
    // Paced one line at a time so the walker shares the WPQ with
    // demand traffic instead of flooding it in one burst.
    const Walk &pass = _walks[w];
    if (pass.next >= pass.lines.size()) {
        _walks.take(w);
        return;
    }
    Addr line = pass.lines[pass.next];
    ++_walkerWritebacks;
    unsigned owner = addr_map::inDataRegion(line)
                         ? addr_map::dataArenaOwner(line) : 0;
    _ctx.hierarchy.flushLine(owner, line, false, [this, w] {
        _ctx.eq.scheduleAfter(4, [this, w] {
            ++_walks[w].next;
            walk(w);
        }, EventQueue::prioDefault, prof::Tag::LogScheme);
    });
}

void
FwbScheme::logAccepted(unsigned core)
{
    CoreState &cs = _cores[core];
    --cs.postedLogs;
    if (!cs.stalledStores.empty() && cs.postedLogs < maxPostedLogs) {
        Callback done = cs.stalledStores.take_front();
        done();
    }
    if (cs.postedLogs == 0 && cs.pendingCommit)
        finishCommit(core);
}

void
FwbScheme::store(unsigned core, Addr addr, Word old_val, Word new_val,
                 Callback done)
{
    CoreState &cs = _cores[core];
    LogRecord rec;
    rec.kind = LogRecord::Kind::UndoRedo;
    rec.tid = std::uint8_t(core);
    rec.txid = txidOf(core);
    rec.dataAddr = addr;
    rec.oldData = old_val;
    rec.newData = new_val;

    // The log write is posted: the queue enforces log-before-data
    // ordering, so the store retires immediately unless the posted
    // queue is full.
    ++cs.postedLogs;
    writeLogWithRetry(core, rec, [this, core] { logAccepted(core); });

    if (cs.postedLogs <= maxPostedLogs)
        done();
    else
        cs.stalledStores.push_back(std::move(done));
}

void
FwbScheme::finishCommit(unsigned core)
{
    Callback done = std::move(_cores[core].pendingCommit);
    writeLogWithRetry(core, commitMarker(core), std::move(done));
}

void
FwbScheme::txEnd(unsigned core, Callback done)
{
    // Commit requires every posted log of the transaction to be
    // durable, then the marker.
    CoreState &cs = _cores[core];
    cs.pendingCommit = std::move(done);
    if (cs.postedLogs == 0)
        finishCommit(core);
}

} // namespace silo::log
