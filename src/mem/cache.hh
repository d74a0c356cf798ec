/**
 * @file
 * One set-associative, write-back, LRU cache level.
 *
 * The timing simulator tracks tags and dirty bits only; word values
 * live in the replay engine's architectural value store (threads never
 * share lines, so the line's content at eviction time always equals
 * the owning thread's current values — see core/replay_core.hh).
 *
 * State is struct-of-arrays with per-set valid/dirty bitmasks (one bit
 * per way), so a lookup only compares tags of valid ways, the LRU
 * victim search finds free ways with a bit scan, and forEachDirtyLine() —
 * the FWB walker's and the crash path's full-cache sweep — skips clean
 * sets entirely via a set-level dirty summary bitmap instead of
 * touching every way of (say) a 4 MB L3. The enumeration order of
 * forEachDirtyLine() is part of the determinism contract: set-major,
 * way-ascending, exactly as the original array-of-structs scan
 * produced (the FWB walk order feeds the event stream).
 */

#ifndef SILO_MEM_CACHE_HH
#define SILO_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace silo::mem
{

/** An evicted line reported by Cache::insert(). */
struct Victim
{
    Addr lineAddr;
    bool dirty;
};

/** Tag/dirty state of one set-associative cache level. */
class Cache
{
  public:
    /**
     * @param name Stat prefix (e.g., "l1d0").
     * @param cfg Geometry and latency.
     */
    Cache(const std::string &name, const CacheConfig &cfg);

    /** Access latency of this level. */
    Cycles latency() const { return _cfg.latency; }

    /**
     * Look up @p line_addr; updates LRU and hit/miss stats.
     * @param set_dirty Mark the line dirty on a hit.
     * @return true on hit.
     */
    bool access(Addr line_addr, bool set_dirty);

    /** @return true if the line is present (no LRU/stat side effects). */
    bool contains(Addr line_addr) const;

    /** @return true if present and dirty. */
    bool isDirty(Addr line_addr) const;

    /**
     * Insert @p line_addr (must not be present), evicting the LRU way
     * of its set if full.
     * @return the evicted victim, if any.
     */
    std::optional<Victim> insert(Addr line_addr, bool dirty);

    /**
     * Remove @p line_addr.
     * @return the line's state if it was present.
     */
    std::optional<Victim> extract(Addr line_addr);

    /** Clear a present line's dirty bit (clwb / force write-back). */
    void clean(Addr line_addr);

    /**
     * Call @p fn (Addr) for each dirty line (FWB walker, clean
     * shutdown, SW-eADR's crash capture), in the documented order.
     */
    template <typename Fn>
    void
    forEachDirtyLine(Fn &&fn) const
    {
        // Set-major, way-ascending: the documented enumeration order.
        for (std::size_t sw = 0; sw < _dirtySummary.size(); ++sw) {
            std::uint64_t sets = _dirtySummary[sw];
            while (sets) {
                auto set = unsigned(sw * 64) +
                           unsigned(std::countr_zero(sets));
                sets &= sets - 1;
                const Addr *tags = &_tags[std::size_t(set) * _cfg.ways];
                std::uint64_t bits = _dirty[set];
                while (bits) {
                    unsigned w = unsigned(std::countr_zero(bits));
                    bits &= bits - 1;
                    fn(tags[w]);
                }
            }
        }
    }

    /** Drop all contents (crash: volatile caches lose state). */
    void invalidateAll();

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    stats::StatGroup &statGroup() { return _stats; }
    const stats::StatGroup &statGroup() const { return _stats; }

  private:
    unsigned setOf(Addr line_addr) const
    {
        return unsigned((line_addr / lineBytes) % _numSets);
    }

    /** Way index of @p line_addr within its set, or -1. */
    int findWay(unsigned set, Addr line_addr) const;

    void
    setDirty(unsigned set, unsigned way)
    {
        _dirty[set] |= std::uint64_t(1) << way;
        _dirtySummary[set >> 6] |= std::uint64_t(1) << (set & 63);
    }

    void
    clearDirty(unsigned set, unsigned way)
    {
        _dirty[set] &= ~(std::uint64_t(1) << way);
        if (_dirty[set] == 0) {
            _dirtySummary[set >> 6] &=
                ~(std::uint64_t(1) << (set & 63));
        }
    }

    CacheConfig _cfg;
    unsigned _numSets;
    std::uint64_t _waysMask;               //!< low _cfg.ways bits set
    std::vector<Addr> _tags;               //!< numSets x associativity
    std::vector<std::uint64_t> _lastUse;   //!< numSets x associativity
    std::vector<std::uint64_t> _valid;     //!< per-set way bitmask
    std::vector<std::uint64_t> _dirty;     //!< per-set way bitmask
    /** Bit per set: the set has at least one dirty way. */
    std::vector<std::uint64_t> _dirtySummary;
    std::uint64_t _useClock = 0;

    stats::StatGroup _stats;
    stats::Scalar _hits{_stats, "hits"};
    stats::Scalar _misses{_stats, "misses"};
    stats::Scalar _evictions{_stats, "evictions"};
    stats::Scalar _dirtyEvictions{_stats, "dirty_evictions"};
};

} // namespace silo::mem

#endif // SILO_MEM_CACHE_HH
