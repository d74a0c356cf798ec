/**
 * @file
 * The three-level cache hierarchy of Table II: private L1D and L2 per
 * core, shared L3, write-back/write-allocate throughout. Lines move up
 * on access and trickle down on eviction; only dirty L3 victims reach
 * the memory controller. When the WPQ is full the victim write-back
 * stalls the access that caused it — the contention path that throttles
 * write-heavy logging schemes.
 */

#ifndef SILO_MEM_HIERARCHY_HH
#define SILO_MEM_HIERARCHY_HH

#include <functional>
#include <memory>
#include <vector>

#include "mc/mc_router.hh"
#include "mem/cache.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/tracer.hh"
#include "sim/word_store.hh"

namespace silo::mem
{

/** Per-core L1/L2 plus shared L3, backed by the memory controller. */
class CacheHierarchy
{
  public:
    /**
     * @p values is the architectural value store: a write-back sends
     * its line's current words.
     */
    CacheHierarchy(EventQueue &eq, const SimConfig &cfg,
                   mc::McRouter &mc, const WordStore &values);

    /**
     * Perform one core access (load or store) to @p addr.
     * @p done runs when the access completes, including any
     * write-back back-pressure it incurred.
     */
    void access(unsigned core, Addr addr, bool write, Callback done);

    /**
     * Write the line's current values to the memory controller and
     * mark it clean everywhere (clwb semantics; LAD uses @p held).
     * @p done runs when the write is accepted into the WPQ.
     */
    void flushLine(unsigned core, Addr line_addr, bool held,
                   Callback done);

    /** @return true if the line is dirty in any level core can reach. */
    bool isDirty(unsigned core, Addr line_addr) const;

    /** All dirty lines in the system (FWB walker). */
    std::vector<Addr> allDirtyLines() const;

    /**
     * Call @p fn (Addr) for each line allDirtyLines() lists, in its
     * order, without building the list.
     */
    template <typename Fn>
    void
    forEachDirtyLine(Fn &&fn) const
    {
        for (unsigned c = 0; c < _l1.size(); ++c) {
            _l1[c]->forEachDirtyLine(fn);
            _l2[c]->forEachDirtyLine(fn);
        }
        _l3->forEachDirtyLine(fn);
    }

    /** Drop every cached line (crash: caches are volatile). */
    void invalidateAll();

    /**
     * Policy hook (LAD): when set, a dirty L3 victim whose address
     * satisfies the predicate is enqueued "held" in the WPQ — durable
     * but not drainable until the owning transaction commits.
     */
    void
    setEvictionHeldPredicate(std::function<bool(Addr)> pred)
    {
        _evictionHeld = std::move(pred);
    }

    Cache &l1(unsigned core) { return *_l1[core]; }
    Cache &l2(unsigned core) { return *_l2[core]; }
    Cache &l3() { return *_l3; }

  private:
    /** A miss waiting for its memory read, then its fill. */
    struct PendingFill
    {
        unsigned core = 0;
        Addr line = 0;
        bool write = false;
        Cycles delay = 0;
        Callback done;
    };

    /** A write-back, retried on each freed WPQ slot until accepted. */
    struct Writeback
    {
        Addr line = 0;
        Tick first = 0;   //!< first attempt (trace span start)
        bool evicted = false;
        bool held = false;
        /**
         * A fill's dirty L3 victim: the fill's @ref done runs @ref delay
         * cycles after the acceptance, not at it.
         */
        bool fill = false;
        Cycles delay = 0;
        Callback done;
    };

    /** Read the eight words of @p line_addr from the value store. */
    std::array<Word, wordsPerLine> lineValues(Addr line_addr) const;

    /**
     * Install @p line_addr into L1, cascade victims down, and finish
     * after @p delay once any dirty L3 victim has a WPQ slot.
     */
    void fill(unsigned core, Addr line_addr, bool dirty, Cycles delay,
              Callback done);

    /** First attempt of @p wb; parks it to retry while the WPQ is full. */
    void writeback(Writeback wb);

    /** Retry the write-back parked at @p idx. */
    void retryWriteback(std::uint32_t idx);

    /** @p wb was accepted: trace it and complete its access. */
    void finishWriteback(Writeback &wb);

    EventQueue &_eq;
    const SimConfig &_cfg;
    mc::McRouter &_mc;
    const WordStore &_values;
    SlotTable<PendingFill> _fills;
    SlotTable<Writeback> _writebacks;

    std::vector<std::unique_ptr<Cache>> _l1;
    std::vector<std::unique_ptr<Cache>> _l2;
    std::unique_ptr<Cache> _l3;
    std::function<bool(Addr)> _evictionHeld;
    /** Write-back timeline; 0 when tracing is off. */
    trace::Tracer::TrackId _track = 0;
};

} // namespace silo::mem

#endif // SILO_MEM_HIERARCHY_HH
