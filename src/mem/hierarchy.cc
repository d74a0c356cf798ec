#include "mem/hierarchy.hh"

namespace silo::mem
{

CacheHierarchy::CacheHierarchy(EventQueue &eq, const SimConfig &cfg,
                               mc::McRouter &mc, const WordStore &values)
    : _eq(eq), _cfg(cfg), _mc(mc), _values(values)
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        _l1.push_back(std::make_unique<Cache>(
            "l1d" + std::to_string(c), cfg.l1d));
        _l2.push_back(std::make_unique<Cache>(
            "l2_" + std::to_string(c), cfg.l2));
    }
    _l3 = std::make_unique<Cache>("l3", cfg.l3);
    if (auto *tr = _eq.tracer())
        _track = tr->track("mem", "writeback");
}

std::array<Word, wordsPerLine>
CacheHierarchy::lineValues(Addr line_addr) const
{
    std::array<Word, wordsPerLine> values;
    for (unsigned w = 0; w < wordsPerLine; ++w)
        values[w] = _values.load(line_addr + Addr(w) * wordBytes);
    return values;
}

void
CacheHierarchy::writeback(Writeback wb)
{
    if (_mc.tryWriteLine(wb.line, lineValues(wb.line), wb.evicted,
                         wb.held)) {
        finishWriteback(wb);
        return;
    }
    const Addr line = wb.line;
    std::uint32_t idx = _writebacks.park(std::move(wb));
    _mc.requestWriteSlot(line, [this, idx] { retryWriteback(idx); });
}

void
CacheHierarchy::retryWriteback(std::uint32_t idx)
{
    const Addr line = _writebacks[idx].line;
    if (!_mc.tryWriteLine(line, lineValues(line), _writebacks[idx].evicted,
                          _writebacks[idx].held)) {
        _mc.requestWriteSlot(line, [this, idx] { retryWriteback(idx); });
        return;
    }
    Writeback wb = _writebacks.take(idx);
    finishWriteback(wb);
}

void
CacheHierarchy::finishWriteback(Writeback &wb)
{
    if (auto *tr = _eq.tracer())
        tr->completeSpan(_track, "writeback", wb.first, _eq.now());
    if (wb.fill) {
        _eq.scheduleAfter(wb.delay, std::move(wb.done),
                          EventQueue::prioCore, prof::Tag::Core);
    } else {
        wb.done();
    }
}

void
CacheHierarchy::fill(unsigned core, Addr line_addr, bool dirty,
                     Cycles delay, Callback done)
{
    auto v1 = _l1[core]->insert(line_addr, dirty);
    std::optional<Victim> v3;
    if (v1) {
        auto v2 = _l2[core]->insert(v1->lineAddr, v1->dirty);
        if (v2)
            v3 = _l3->insert(v2->lineAddr, v2->dirty);
    }

    if (v3 && v3->dirty) {
        // The dirty L3 victim must secure a WPQ slot before the access
        // retires — full WPQ means real back-pressure on the core.
        bool held = _evictionHeld && _evictionHeld(v3->lineAddr);
        writeback(Writeback{.line = v3->lineAddr,
                            .first = _eq.now(),
                            .evicted = true,
                            .held = held,
                            .fill = true,
                            .delay = delay,
                            .done = std::move(done)});
        return;
    }
    _eq.scheduleAfter(delay, std::move(done), EventQueue::prioCore,
                      prof::Tag::Core);
}

void
CacheHierarchy::access(unsigned core, Addr addr, bool write,
                       Callback done)
{
    Addr line = lineAlign(addr);

    if (_l1[core]->access(line, write)) {
        _eq.scheduleAfter(_cfg.l1d.latency, std::move(done),
                          EventQueue::prioCore, prof::Tag::Core);
        return;
    }

    Cycles base = _cfg.l1d.latency;
    if (_l2[core]->access(line, false)) {
        auto state = _l2[core]->extract(line);
        fill(core, line, state->dirty || write,
             base + _cfg.l2.latency, std::move(done));
        return;
    }

    base += _cfg.l2.latency;
    if (_l3->access(line, false)) {
        auto state = _l3->extract(line);
        fill(core, line, state->dirty || write,
             base + _cfg.l3.latency, std::move(done));
        return;
    }

    // Miss to memory: the fill waits for the read.
    base += _cfg.l3.latency;
    std::uint32_t idx = _fills.park(
        PendingFill{core, line, write, base, std::move(done)});
    _mc.read(line, [this, idx] {
        PendingFill f = _fills.take(idx);
        fill(f.core, f.line, f.write, f.delay, std::move(f.done));
    });
}

void
CacheHierarchy::flushLine(unsigned core, Addr line_addr, bool held,
                          Callback done)
{
    _l1[core]->clean(line_addr);
    _l2[core]->clean(line_addr);
    _l3->clean(line_addr);
    writeback(Writeback{.line = line_addr,
                        .first = _eq.now(),
                        .held = held,
                        .done = std::move(done)});
}

bool
CacheHierarchy::isDirty(unsigned core, Addr line_addr) const
{
    return _l1[core]->isDirty(line_addr) ||
           _l2[core]->isDirty(line_addr) || _l3->isDirty(line_addr);
}

std::vector<Addr>
CacheHierarchy::allDirtyLines() const
{
    std::vector<Addr> out;
    forEachDirtyLine([&out](Addr line) { out.push_back(line); });
    return out;
}

void
CacheHierarchy::invalidateAll()
{
    for (auto &cache : _l1)
        cache->invalidateAll();
    for (auto &cache : _l2)
        cache->invalidateAll();
    _l3->invalidateAll();
}

} // namespace silo::mem
