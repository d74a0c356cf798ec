#include "log/lad_scheme.hh"

#include <algorithm>

namespace silo::log
{

namespace
{

/** Hold back this many MC entries of headroom before slow mode. */
constexpr unsigned heldHeadroom = 8;

} // namespace

LadScheme::LadScheme(SchemeContext ctx)
    : LoggingScheme(std::move(ctx)), _cores(_ctx.cfg.numCores)
{
    // Dirty L3 victims of uncommitted transactions are buffered in the
    // MC as held entries instead of draining to PM.
    _ctx.hierarchy.setEvictionHeldPredicate([this](Addr line) {
        // An eviction is about to claim an MC slot: relieve pressure
        // first if the held population is near capacity.
        maybeRelieve();
        return lineIsUncommitted(line);
    });
    _ctx.mc.setEvictionObserver([this](Addr) { maybeRelieve(); });
}

int
LadScheme::ownerOf(Addr line) const
{
    if (!addr_map::inDataRegion(line))
        return -1;
    unsigned owner = addr_map::dataArenaOwner(line);
    return owner < _cores.size() ? int(owner) : -1;
}

bool
LadScheme::lineIsUncommitted(Addr line) const
{
    int owner = ownerOf(line);
    if (owner < 0)
        return false;
    const CoreState &cs = _cores[owner];
    return cs.open && cs.txLines.count(line) &&
           (!cs.undoLogged.count(line) || cs.relieving.count(line));
}

void
LadScheme::beginTx(unsigned core)
{
    CoreState &cs = _cores[core];
    cs.open = true;
    cs.txLines.clear();
    cs.undoImage.clear();
    cs.undoLogged.clear();
    cs.relieving.clear();
}

void
LadScheme::store(unsigned core, Addr addr, Word old_val, Word new_val,
                 Callback done)
{
    (void)new_val;
    CoreState &cs = _cores[core];
    Addr line = lineAlign(addr);
    cs.txLines.insert(line);
    auto it = std::lower_bound(
        cs.undoImage.begin(), cs.undoImage.end(), addr,
        [](const auto &entry, Addr a) { return entry.first < a; });
    bool first = it == cs.undoImage.end() || it->first != addr;
    if (first)
        cs.undoImage.emplace(it, addr, old_val);

    // A first store into a line that already went through slow mode
    // brings a word the relieve pass never logged: the line is
    // drainable, so an eviction would put the word's uncommitted value
    // on media with nothing to revoke it. Persist its undo record now
    // (durable from the ADR log path on). Lines still mid-relieve are
    // covered by the relieve callback, which walks undoImage later.
    if (first && cs.undoLogged.count(line) && !cs.relieving.count(line)) {
        LogRecord rec;
        rec.kind = LogRecord::Kind::Undo;
        rec.tid = std::uint8_t(core);
        rec.txid = txidOf(core);
        rec.dataAddr = addr;
        rec.oldData = old_val;
        writeLogWithRetry(core, rec, [] {});
    }
    done();
}

void
LadScheme::relieveLine(unsigned core, Addr line)
{
    CoreState &cs = _cores[core];
    if (cs.undoLogged.count(line))
        return;
    cs.undoLogged.insert(line);
    cs.relieving.insert(line);
    ++_fallbacks;

    // Slow mode: read the line's old data from PM, then persist undo
    // records for the words this transaction modified, then let the
    // held entry drain. Until the records are handed to the MC's ADR
    // log path the line stays in `relieving`, so evictions racing with
    // the read are still buffered as held entries.
    std::uint32_t r =
        _reliefs.park(Relief{core, line, _ctx.eq.now(), 0});
    _ctx.mc.read(line, [this, r] { relieveRead(r); });
}

void
LadScheme::relieveRead(std::uint32_t r)
{
    const unsigned core = _reliefs[r].core;
    const Addr line = _reliefs[r].line;
    CoreState &cs = _cores[core];
    _reliefWords.clear();
    for (const auto &[addr, old_val] : cs.undoImage) {
        if (lineAlign(addr) == line)
            _reliefWords.emplace_back(addr, old_val);
    }
    if (_reliefWords.empty()) {
        cs.relieving.erase(line);
        finishRelief(r);
        return;
    }
    _reliefs[r].remaining = unsigned(_reliefWords.size());
    for (const auto &[addr, old_val] : _reliefWords) {
        LogRecord rec;
        rec.kind = LogRecord::Kind::Undo;
        rec.tid = std::uint8_t(core);
        rec.txid = txidOf(core);
        rec.dataAddr = addr;
        rec.oldData = old_val;
        writeLogWithRetry(core, rec, [this, r] { relieveLogged(r); });
    }
    // Records are in the ADR log path now (durable): evictions of the
    // line may drain.
    cs.relieving.erase(line);
}

void
LadScheme::relieveLogged(std::uint32_t r)
{
    if (--_reliefs[r].remaining == 0)
        finishRelief(r);
}

void
LadScheme::finishRelief(std::uint32_t r)
{
    Relief relief = _reliefs.take(r);
    if (auto *tr = _ctx.eq.tracer()) {
        tr->completeSpan(tr->track("scheme", "lad"), "relieve",
                         relief.start, _ctx.eq.now());
    }
    _ctx.mc.releaseHeld(relief.line);
}

void
LadScheme::maybeRelieve()
{
    if (_ctx.mc.heldEntries() + heldHeadroom < _ctx.cfg.ladMcEntries)
        return;
    // Push the busiest open transaction's oldest line to slow mode.
    for (unsigned core = 0; core < _cores.size(); ++core) {
        CoreState &cs = _cores[core];
        if (!cs.open)
            continue;
        for (Addr line : cs.txLines) {
            if (!cs.undoLogged.count(line)) {
                relieveLine(core, line);
                return;
            }
        }
    }
}

void
LadScheme::commitPhase1(unsigned core)
{
    CoreState &cs = _cores[core];
    while (cs.commitNext < cs.commitLines.size() &&
           !_ctx.hierarchy.isDirty(core, cs.commitLines[cs.commitNext]))
        ++cs.commitNext;
    if (cs.commitNext >= cs.commitLines.size()) {
        // On-chip pipeline delay for the last line to reach the MC.
        Cycles pipe = _ctx.cfg.l2.latency + _ctx.cfg.l3.latency;
        _ctx.eq.scheduleAfter(pipe, [this, core] { commitPhase2(core); },
                              EventQueue::prioDefault,
                              prof::Tag::LogScheme);
        return;
    }
    Addr line = cs.commitLines[cs.commitNext];
    ++_phase1Lines;
    maybeRelieve();
    bool held = !cs.undoLogged.count(line) || cs.relieving.count(line);
    _ctx.hierarchy.flushLine(core, line, held, [this, core] {
        // The L1 -> LLC -> MC pipeline issues one line per interval
        // (LAD's commit waits on this path, §V point 1).
        _ctx.eq.scheduleAfter(ladFlushPerLineCycles, [this, core] {
            ++_cores[core].commitNext;
            commitPhase1(core);
        }, EventQueue::prioDefault, prof::Tag::LogScheme);
    });
}

void
LadScheme::commitPhase2(unsigned core)
{
    CoreState &cs = _cores[core];
    if (_ctx.cfg.mutation != MutationKind::DropHeldRelease) {
        for (Addr line : cs.txLines)
            _ctx.mc.releaseHeld(line);
    }
    // Undo logs of slow-mode lines are obsolete after commit.
    _ctx.domain.logs.truncate(core);
    cs.open = false;
    cs.txLines.clear();
    cs.undoImage.clear();
    cs.undoLogged.clear();
    cs.relieving.clear();
    Callback done = std::move(cs.commitDone);
    done();
}

void
LadScheme::txEnd(unsigned core, Callback done)
{
    CoreState &cs = _cores[core];
    cs.commitLines.assign(cs.txLines.begin(), cs.txLines.end());
    cs.commitNext = 0;
    cs.commitDone = std::move(done);
    commitPhase1(core);
}

} // namespace silo::log
