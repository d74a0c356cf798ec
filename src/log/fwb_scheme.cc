#include "log/fwb_scheme.hh"

#include <memory>
#include <vector>

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
        walk(std::make_shared<const std::vector<Addr>>(
                 _ctx.hierarchy.allDirtyLines()),
             0);
        scheduleWalk();
    }, EventQueue::prioDefault, prof::Tag::LogScheme);
}

void
FwbScheme::walk(std::shared_ptr<const std::vector<Addr>> lines,
                std::size_t next)
{
    // Paced one line at a time so the walker shares the WPQ with
    // demand traffic instead of flooding it in one burst.
    if (next >= lines->size())
        return;
    Addr line = (*lines)[next];
    ++_walkerWritebacks;
    unsigned owner = addr_map::inDataRegion(line)
                         ? addr_map::dataArenaOwner(line) : 0;
    _ctx.hierarchy.flushLine(owner, line, false, [this, lines, next] {
        _ctx.eq.scheduleAfter(4, [this, lines, next] {
            walk(lines, next + 1);
        }, EventQueue::prioDefault, prof::Tag::LogScheme);
    });
}

void
FwbScheme::logAccepted(unsigned core)
{
    CoreState &cs = _cores[core];
    --cs.postedLogs;
    if (!cs.stalledStores.empty() && cs.postedLogs < maxPostedLogs) {
        auto done = std::move(cs.stalledStores.front());
        cs.stalledStores.pop_front();
        done();
    }
    if (cs.postedLogs == 0 && cs.pendingCommit)
        finishCommit(core);
}

void
FwbScheme::store(unsigned core, Addr addr, Word old_val, Word new_val,
                 std::function<void()> done)
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
    CoreState &cs = _cores[core];
    auto done = std::move(cs.pendingCommit);
    cs.pendingCommit = nullptr;
    writeLogWithRetry(core, commitMarker(core), std::move(done));
}

void
FwbScheme::txEnd(unsigned core, std::function<void()> done)
{
    // Commit requires every posted log of the transaction to be
    // durable, then the marker.
    CoreState &cs = _cores[core];
    cs.pendingCommit = std::move(done);
    if (cs.postedLogs == 0)
        finishCommit(core);
}

} // namespace silo::log
