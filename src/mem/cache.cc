#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace silo::mem
{

Cache::Cache(const std::string &name, const CacheConfig &cfg)
    : _cfg(cfg), _stats(name)
{
    std::uint64_t lines = cfg.sizeBytes / lineBytes;
    if (cfg.ways == 0 || lines % cfg.ways != 0)
        fatal("cache geometry: lines must divide evenly into ways");
    if (cfg.ways > 64)
        fatal("cache geometry: at most 64 ways (per-set bitmasks)");
    _numSets = unsigned(lines / cfg.ways);
    _waysMask = cfg.ways == 64 ? ~std::uint64_t(0)
                               : (std::uint64_t(1) << cfg.ways) - 1;
    _tags.resize(lines);
    _lastUse.resize(lines);
    _valid.resize(_numSets);
    _dirty.resize(_numSets);
    _dirtySummary.resize((_numSets + 63) / 64);

    _stats.addScalar(_hits);
    _stats.addScalar(_misses);
    _stats.addScalar(_evictions);
    _stats.addScalar(_dirtyEvictions);
}

int
Cache::findWay(unsigned set, Addr line_addr) const
{
    const Addr *tags = &_tags[std::size_t(set) * _cfg.ways];
    std::uint64_t live = _valid[set];
    while (live) {
        unsigned w = unsigned(std::countr_zero(live));
        live &= live - 1;
        if (tags[w] == line_addr)
            return int(w);
    }
    return -1;
}

bool
Cache::access(Addr line_addr, bool set_dirty)
{
    unsigned set = setOf(line_addr);
    int w = findWay(set, line_addr);
    if (w >= 0) {
        _lastUse[std::size_t(set) * _cfg.ways + unsigned(w)] =
            ++_useClock;
        if (set_dirty)
            setDirty(set, unsigned(w));
        ++_hits;
        return true;
    }
    ++_misses;
    return false;
}

bool
Cache::contains(Addr line_addr) const
{
    return findWay(setOf(line_addr), line_addr) >= 0;
}

bool
Cache::isDirty(Addr line_addr) const
{
    unsigned set = setOf(line_addr);
    int w = findWay(set, line_addr);
    return w >= 0 && ((_dirty[set] >> unsigned(w)) & 1);
}

std::optional<Victim>
Cache::insert(Addr line_addr, bool dirty)
{
    unsigned set = setOf(line_addr);
    if (findWay(set, line_addr) >= 0)
        panic("inserting a line that is already present");

    std::size_t base = std::size_t(set) * _cfg.ways;
    std::uint64_t free = ~_valid[set] & _waysMask;
    unsigned target;
    std::optional<Victim> victim;
    if (free) {
        // Lowest free way: matches the original first-invalid scan.
        target = unsigned(std::countr_zero(free));
    } else {
        // LRU over a full set; strict < keeps the lowest way on ties.
        target = 0;
        for (unsigned w = 1; w < _cfg.ways; ++w) {
            if (_lastUse[base + w] < _lastUse[base + target])
                target = w;
        }
        victim = Victim{_tags[base + target],
                        ((_dirty[set] >> target) & 1) != 0};
        ++_evictions;
        if (victim->dirty)
            ++_dirtyEvictions;
    }

    _tags[base + target] = line_addr;
    _lastUse[base + target] = ++_useClock;
    _valid[set] |= std::uint64_t(1) << target;
    if (dirty)
        setDirty(set, target);
    else
        clearDirty(set, target);
    return victim;
}

std::optional<Victim>
Cache::extract(Addr line_addr)
{
    unsigned set = setOf(line_addr);
    int w = findWay(set, line_addr);
    if (w < 0)
        return std::nullopt;
    Victim v{line_addr, ((_dirty[set] >> unsigned(w)) & 1) != 0};
    _valid[set] &= ~(std::uint64_t(1) << unsigned(w));
    clearDirty(set, unsigned(w));
    return v;
}

void
Cache::clean(Addr line_addr)
{
    unsigned set = setOf(line_addr);
    int w = findWay(set, line_addr);
    if (w >= 0)
        clearDirty(set, unsigned(w));
}

std::vector<Addr>
Cache::dirtyLines() const
{
    std::vector<Addr> out;
    forEachDirtyLine([&out](Addr line) { out.push_back(line); });
    return out;
}

void
Cache::invalidateAll()
{
    // Stale tags/lastUse are never read once their valid bit is gone.
    std::fill(_valid.begin(), _valid.end(), 0);
    std::fill(_dirty.begin(), _dirty.end(), 0);
    std::fill(_dirtySummary.begin(), _dirtySummary.end(), 0);
}

} // namespace silo::mem
