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
    _ladStats.addScalar(_fallbacks);
    _ladStats.addScalar(_phase1Lines);
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
                 std::function<void()> done)
{
    (void)new_val;
    CoreState &cs = _cores[core];
    Addr line = lineAlign(addr);
    cs.txLines.insert(line);
    bool first = cs.undoImage.emplace(addr, old_val).second;

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
    Tick relieve_start = _ctx.eq.now();

    // Slow mode: read the line's old data from PM, then persist undo
    // records for the words this transaction modified, then let the
    // held entry drain. Until the records are handed to the MC's ADR
    // log path the line stays in `relieving`, so evictions racing with
    // the read are still buffered as held entries.
    _ctx.mc.read(line, [this, core, line, relieve_start] {
        CoreState &cs2 = _cores[core];
        std::vector<std::pair<Addr, Word>> words;
        for (const auto &[addr, old_val] : cs2.undoImage) {
            if (lineAlign(addr) == line)
                words.emplace_back(addr, old_val);
        }
        if (words.empty()) {
            cs2.relieving.erase(line);
            if (auto *tr = _ctx.eq.tracer()) {
                tr->completeSpan(tr->track("scheme", "lad"), "relieve",
                                 relieve_start, _ctx.eq.now());
            }
            _ctx.mc.releaseHeld(line);
            return;
        }
        auto remaining = std::make_shared<unsigned>(
            unsigned(words.size()));
        for (const auto &[addr, old_val] : words) {
            LogRecord rec;
            rec.kind = LogRecord::Kind::Undo;
            rec.tid = std::uint8_t(core);
            rec.txid = txidOf(core);
            rec.dataAddr = addr;
            rec.oldData = old_val;
            writeLogWithRetry(core, rec,
                              [this, line, remaining, relieve_start] {
                if (--*remaining == 0) {
                    if (auto *tr = _ctx.eq.tracer()) {
                        tr->completeSpan(tr->track("scheme", "lad"),
                                         "relieve", relieve_start,
                                         _ctx.eq.now());
                    }
                    _ctx.mc.releaseHeld(line);
                }
            });
        }
        // Records are in the ADR log path now (durable): evictions of
        // the line may drain.
        cs2.relieving.erase(line);
    });
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
LadScheme::commitPhase1(unsigned core, std::vector<Addr> lines,
                        std::size_t next, std::function<void()> done)
{
    if (next >= lines.size()) {
        // On-chip pipeline delay for the last line to reach the MC.
        Cycles pipe = _ctx.cfg.l2.latency + _ctx.cfg.l3.latency;
        _ctx.eq.scheduleAfter(pipe, [this, core,
                                     done = std::move(done)]() mutable {
            commitPhase2(core, std::move(done));
        }, EventQueue::prioDefault, prof::Tag::LogScheme);
        return;
    }
    Addr line = lines[next];
    if (!_ctx.hierarchy.isDirty(core, line)) {
        commitPhase1(core, std::move(lines), next + 1, std::move(done));
        return;
    }
    ++_phase1Lines;
    maybeRelieve();
    bool held = !_cores[core].undoLogged.count(line) ||
                _cores[core].relieving.count(line);
    _ctx.hierarchy.flushLine(core, line, held,
                             [this, core, lines = std::move(lines),
                              next, done = std::move(done)]() mutable {
        // The L1 -> LLC -> MC pipeline issues one line per interval
        // (LAD's commit waits on this path, §V point 1).
        _ctx.eq.scheduleAfter(_ctx.cfg.ladFlushPerLineCycles,
                              [this, core, lines = std::move(lines),
                               next, done = std::move(done)]() mutable {
            commitPhase1(core, std::move(lines), next + 1,
                         std::move(done));
        }, EventQueue::prioDefault, prof::Tag::LogScheme);
    });
}

void
LadScheme::commitPhase2(unsigned core, std::function<void()> done)
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
    done();
}

void
LadScheme::txEnd(unsigned core, std::function<void()> done)
{
    CoreState &cs = _cores[core];
    std::vector<Addr> lines(cs.txLines.begin(), cs.txLines.end());
    commitPhase1(core, std::move(lines), 0, std::move(done));
}

} // namespace silo::log
