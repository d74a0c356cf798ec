#include "mem/hierarchy.hh"

namespace silo::mem
{

CacheHierarchy::CacheHierarchy(EventQueue &eq, const SimConfig &cfg,
                               mc::McRouter &mc, ValueSource values)
    : _eq(eq), _cfg(cfg), _mc(mc), _values(std::move(values))
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
        values[w] = _values(line_addr + Addr(w) * wordBytes);
    return values;
}

void
CacheHierarchy::writebackWithRetry(Addr line_addr, bool evicted,
                                   bool held, std::function<void()> done)
{
    writebackAttempt(line_addr, evicted, held, _eq.now(),
                     std::move(done));
}

void
CacheHierarchy::writebackAttempt(Addr line_addr, bool evicted, bool held,
                                 Tick first, std::function<void()> done)
{
    if (_mc.tryWriteLine(line_addr, lineValues(line_addr), evicted,
                         held)) {
        if (auto *tr = _eq.tracer())
            tr->completeSpan(_track, "writeback", first, _eq.now());
        done();
        return;
    }
    _mc.requestWriteSlot(line_addr,
                         [this, line_addr, evicted, held, first,
                          done = std::move(done)]() mutable {
        writebackAttempt(line_addr, evicted, held, first,
                         std::move(done));
    });
}

void
CacheHierarchy::fill(unsigned core, Addr line_addr, bool dirty,
                     Cycles delay, std::function<void()> done)
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
        writebackWithRetry(v3->lineAddr, /*evicted=*/true, held,
                           [this, delay, done = std::move(done)] {
            _eq.scheduleAfter(delay, std::move(done),
                              EventQueue::prioCore, prof::Tag::Core);
        });
        return;
    }
    _eq.scheduleAfter(delay, std::move(done), EventQueue::prioCore,
                      prof::Tag::Core);
}

void
CacheHierarchy::access(unsigned core, Addr addr, bool write,
                       std::function<void()> done)
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

    // Miss to memory.
    base += _cfg.l3.latency;
    _mc.read(line, [this, core, line, write, base,
                    done = std::move(done)]() mutable {
        fill(core, line, write, base, std::move(done));
    });
}

void
CacheHierarchy::flushLine(unsigned core, Addr line_addr, bool held,
                          std::function<void()> done)
{
    _l1[core]->clean(line_addr);
    _l2[core]->clean(line_addr);
    _l3->clean(line_addr);
    writebackWithRetry(line_addr, /*evicted=*/false, held,
                       std::move(done));
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
