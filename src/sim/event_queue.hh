/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Components schedule callbacks at absolute ticks. Events scheduled for
 * the same tick execute in (priority, insertion order), which keeps every
 * simulation bit-for-bit reproducible across runs — a requirement for the
 * crash-injection property tests, which replay a run up to an arbitrary
 * event index.
 *
 * Internally the queue is a calendar queue (a bucketed timing wheel),
 * not a binary heap: almost every event in this simulator lands within a
 * few thousand cycles of now (cache latencies, WPQ drains, PM
 * programming pulses), so hashing events into per-tick buckets makes
 * schedule() a list push and pop a short bitmap scan instead of
 * O(log n) heap churn. Events live in one slab; each bucket is a
 * singly linked list threaded through the slab, so an empty queue
 * costs a few small arrays, not one container per tick. Far-future
 * events (e.g. FWB's multi-million-cycle walker period) fall back to a
 * lazily sorted overflow list and are promoted into the wheel once the
 * cursor comes within one horizon of them. The pop order is *exactly*
 * the old heap's (when, priority, sequence) order — DESIGN.md §4e
 * documents the tiebreak contract, and tests/sim/event_queue_diff_test.cc
 * proves equivalence against a reference std::priority_queue over a
 * million randomized operations.
 *
 * Invariants:
 *  - every wheel event's tick lies in [_cursor, _cursor + wheelSize),
 *    so a bucket only ever holds events of one tick;
 *  - every overflow event's tick is >= _cursor + wheelSize;
 *  - _cursor <= the earliest pending event's tick;
 *  - _head[b] is meaningful only while bucket b's _occupied bit is set.
 * schedule() below now() clamps to now(); scheduling below the cursor
 * (legal between run phases, e.g. post-crash settling) rewinds the
 * cursor and demotes wheel events that fell out of the shrunk horizon.
 */

#ifndef SILO_SIM_EVENT_QUEUE_HH
#define SILO_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.hh"
#include "sim/profiler.hh"
#include "sim/types.hh"

namespace silo
{

namespace trace { class Tracer; }

/**
 * The central event queue driving a simulated system.
 *
 * Single-threaded by design: the simulated hardware is concurrent, the
 * simulator is not.
 */
class EventQueue
{
  public:
    /**
     * A scheduled event: an inline, move-only callable (sim/callback.hh)
     * whose capture fits Callback::captureBytes, so scheduling and
     * dispatching allocate nothing.
     */
    using Callback = silo::Callback;

    /**
     * User-provided so that value-initialization (`EventQueue{}`,
     * `std::make_unique<EventQueue>()`) does not zero-fill the bucket
     * heads: a fresh queue costs only what its members initialize.
     */
    EventQueue() noexcept {}
    /** Scheduled callbacks capture component pointers: never copied. */
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Event priorities; lower runs first within a tick. */
    enum Priority : int
    {
        prioDevice = -10,   //!< memory devices complete first
        prioDefault = 0,
        prioCore = 10,      //!< cores observe completed hardware state
    };

    /** Current simulated time (tick of the last executed event). */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb at absolute time @p when.
     *
     * @p domain is the static profiling tag the dispatch is timed
     * under when a profiler is attached (see sim/profiler.hh); it has
     * no effect on simulation semantics or ordering. Component
     * schedule sites pass their own domain; the default keeps
     * untagged callers visible as "other" in profiles.
     * @pre when >= now()
     */
    void
    schedule(Tick when, Callback &&cb, int priority = prioDefault,
             prof::Tag domain = prof::Tag::Other)
    {
        if (when < _now)
            when = _now;
        if (_size == 0)
            _cursor = when;
        else if (when < _cursor)
            rewindCursor(when);
        if (_peekValid && when <= _peekWhen) {
            // A fresh event always carries the largest seq, so it only
            // pops first on earlier tick or same-tick lower priority.
            if (when < _peekWhen || priority < _peekPriority)
                _peekValid = false;
        }
        ++_size;
        if (when < _cursor + wheelSize) {
            // Built in its slab slot: the callback moves once.
            std::uint32_t slot = allocSlot();
            Scheduled &ev = _slab[slot];
            ev.when = when;
            ev.seq = _nextSeq++;
            ev.priority = priority;
            ev.domain = domain;
            ev.callback = std::move(cb);
            linkInWheel(slot);
        } else {
            _overflowMin = std::min(_overflowMin, when);
            _overflow.push_back(Scheduled{when, _nextSeq++, priority,
                                          domain, std::move(cb)});
            _overflowSorted = false;
        }
    }

    /** Schedule @p cb @p delta ticks from now. */
    void
    scheduleAfter(Cycles delta, Callback &&cb, int priority = prioDefault,
                  prof::Tag domain = prof::Tag::Other)
    {
        schedule(_now + delta, std::move(cb), priority, domain);
    }

    /** @return true if no events remain. */
    bool empty() const { return _size == 0; }

    /** Number of events executed so far. */
    std::uint64_t executedEvents() const { return _executed; }

    /** Ask the run loop to stop after the current event (crash inject). */
    void requestStop() { _stopRequested = true; }

    /** Allow running again after a stop (post-run settling). */
    void clearStop() { _stopRequested = false; }

    /**
     * Execute events whose time is at most @p limit.
     * @return number of events executed.
     */
    std::uint64_t
    runUntil(Tick limit)
    {
        prof::TimedScope loop(_prof, prof::Tag::Queue);
        std::uint64_t n = 0;
        while (!_stopRequested && findNext() && _peekWhen <= limit &&
               runNext()) {
            ++n;
        }
        return n;
    }

    /** @return true once requestStop() has been called. */
    bool stopRequested() const { return _stopRequested; }

    /**
     * Execute the next event.
     * @return false if the queue was empty.
     */
    bool
    runNext()
    {
        if (!findNext())
            return false;
        // Unlink the peeked slot. Bucket order is irrelevant: the pop
        // path always scans the (single-tick) bucket for the
        // (priority, seq) min.
        const std::uint32_t slot = _peekSlot;
        if (_peekPrev != noSlot) {
            _next[_peekPrev] = _next[slot];
        } else if (_next[slot] != noSlot) {
            _head[_peekBucket] = _next[slot];
        } else {
            clearOccupied(_peekBucket);
        }
        // Move out before the callback runs: it may schedule, which can
        // reuse the slot or grow the slab.
        const Tick when = _slab[slot].when;
        const prof::Tag domain = _slab[slot].domain;
        Callback callback = std::move(_slab[slot].callback);
        freeSlot(slot);
        --_wheelCount;
        --_size;
        _peekValid = false;
        // Observers (the interval sampler) see the settled state of the
        // outgoing tick just before time advances. Driving them from
        // here instead of from their own scheduled events keeps a
        // traced run's event stream identical to an untraced one.
        if (_advanceHook && when > _now)
            _advanceHook(when);
        _now = when;
        ++_executed;
        {
            // The profiling choke point: every dispatch is timed
            // under its domain tag. Unprofiled runs pay one branch on
            // the null pointer inside TimedScope.
            prof::TimedScope dispatch(_prof, domain);
            callback();
        }
        return true;
    }

    /**
     * Install @p hook, called with the upcoming tick whenever the next
     * event advances simulated time (null uninstalls). During the call
     * now() still reports the outgoing tick, whose state is final: all
     * of its events have executed. Used by the tracing interval
     * sampler; unset for untraced runs, costing one test per event.
     */
    void
    setAdvanceHook(std::function<void(Tick)> hook)
    {
        _advanceHook = std::move(hook);
    }

    /**
     * Run until the queue drains, a stop is requested, or @p max_events
     * more events have executed.
     * @return number of events executed by this call.
     */
    std::uint64_t
    run(std::uint64_t max_events = ~std::uint64_t(0))
    {
        // The loop's own work (finding and unlinking the next event,
        // moving it out) runs between dispatch scopes: it is charged
        // to the queue's domain, the self time of this scope.
        prof::TimedScope loop(_prof, prof::Tag::Queue);
        std::uint64_t n = 0;
        while (n < max_events && !_stopRequested && runNext())
            ++n;
        return n;
    }

    /**
     * Attach the run's tracer (null detaches). The queue only carries
     * the pointer so every component reachable from the queue can trace
     * without extra plumbing; with tracing off it stays null and each
     * instrumentation site costs one pointer test.
     */
    void setTracer(trace::Tracer *tracer) { _tracer = tracer; }

    /** @return the attached tracer, or nullptr when tracing is off. */
    trace::Tracer *tracer() const { return _tracer; }

    /**
     * Attach the owning thread's profiling slab (null detaches).
     * Mirrors setTracer(): the queue carries the pointer so the one
     * dispatch site can attribute host time without any plumbing
     * through components; unprofiled runs keep it null.
     */
    void setProfiler(prof::ThreadProfile *profile) { _prof = profile; }

    /** @return the attached profiling slab, or nullptr. */
    prof::ThreadProfile *profiler() const { return _prof; }

    /** Drop all pending events and reset time (used between experiments). */
    void
    reset()
    {
        _slab.clear();
        _next.clear();
        _freeHead = noSlot;
        _occupied.fill(0);
        _occupiedSummary.fill(0);
        _overflow.clear();
        _overflowSorted = true;
        _overflowMin = maxTick;
        _wheelCount = 0;
        _size = 0;
        _cursor = 0;
        _peekValid = false;
        _now = 0;
        _executed = 0;
        _nextSeq = 0;
        _stopRequested = false;
    }

  private:
    struct Scheduled
    {
        Tick when;
        std::uint64_t seq;
        int priority;
        /** Profiling domain the dispatch is attributed to. */
        prof::Tag domain;
        Callback callback;
    };

    /**
     * Wheel geometry: one bucket per tick, 16K ticks of horizon —
     * large enough that everything except multi-million-cycle
     * periodics (the FWB walker) stays out of the overflow list.
     */
    static constexpr unsigned wheelBits = 14;
    static constexpr Tick wheelSize = Tick(1) << wheelBits;
    static constexpr Tick wheelMask = wheelSize - 1;
    static constexpr std::size_t occWords = wheelSize / 64;

    /** Slab index terminating a bucket list or the free list. */
    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    /** A free slab slot (reused first); its callback is empty. */
    std::uint32_t
    allocSlot()
    {
        if (_freeHead != noSlot) {
            std::uint32_t slot = _freeHead;
            _freeHead = _next[slot];
            return slot;
        }
        _slab.emplace_back();
        _next.push_back(noSlot);
        return std::uint32_t(_slab.size() - 1);
    }

    /** Return @p slot, already moved from, to the free list. */
    void
    freeSlot(std::uint32_t slot)
    {
        _next[slot] = _freeHead;
        _freeHead = slot;
    }

    bool
    isOccupied(std::size_t b) const
    {
        return (_occupied[b >> 6] >> (b & 63)) & 1;
    }

    void
    placeInWheel(Scheduled &&ev)
    {
        std::uint32_t slot = allocSlot();
        _slab[slot] = std::move(ev);
        linkInWheel(slot);
    }

    /** Link the filled @p slot into its tick's bucket. */
    void
    linkInWheel(std::uint32_t slot)
    {
        auto b = std::size_t(_slab[slot].when & wheelMask);
        if (isOccupied(b)) {
            // Push at the head; a peeked old head gains a predecessor.
            _next[slot] = _head[b];
            if (_peekValid && _peekBucket == b && _peekPrev == noSlot)
                _peekPrev = slot;
        } else {
            _next[slot] = noSlot;
            setOccupied(b);
        }
        _head[b] = slot;
        ++_wheelCount;
    }

    void
    setOccupied(std::size_t b)
    {
        _occupied[b >> 6] |= std::uint64_t(1) << (b & 63);
        _occupiedSummary[b >> 12] |= std::uint64_t(1) << ((b >> 6) & 63);
    }

    void
    clearOccupied(std::size_t b)
    {
        _occupied[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
        if (_occupied[b >> 6] == 0) {
            _occupiedSummary[b >> 12] &=
                ~(std::uint64_t(1) << ((b >> 6) & 63));
        }
    }

    /**
     * The cursor moved backwards (scheduling below it between run
     * phases): wheel events beyond the shrunk horizon drop back to the
     * overflow list so buckets stay single-tick. O(pending events),
     * and pending counts are tiny whenever this path triggers.
     */
    void
    rewindCursor(Tick when)
    {
        _cursor = when;
        if (_wheelCount == 0)
            return;
        Tick end = _cursor + wheelSize;
        for (std::size_t w = 0; w < occWords; ++w) {
            std::uint64_t bits = _occupied[w];
            while (bits) {
                auto b = (w << 6) +
                         std::size_t(std::countr_zero(bits));
                bits &= bits - 1;
                std::uint32_t slot = _head[b];
                const Tick when = _slab[slot].when;
                if (when < end)
                    continue;   // buckets are single-tick: all stay
                _overflowMin = std::min(_overflowMin, when);
                while (slot != noSlot) {
                    std::uint32_t next = _next[slot];
                    _overflow.push_back(std::move(_slab[slot]));
                    freeSlot(slot);
                    --_wheelCount;
                    slot = next;
                }
                _overflowSorted = false;
                clearOccupied(b);
            }
        }
        _peekValid = false;
    }

    /** Move overflow events that entered the horizon into the wheel. */
    void
    promoteOverflow()
    {
        if (_overflowMin >= _cursor + wheelSize)
            return;
        if (!_overflowSorted) {
            // Descending (when, priority, seq): the nearest event sits
            // at the back, so promotion pops cheaply in order.
            std::sort(_overflow.begin(), _overflow.end(),
                      [](const Scheduled &a, const Scheduled &b) {
                          if (a.when != b.when)
                              return a.when > b.when;
                          if (a.priority != b.priority)
                              return a.priority > b.priority;
                          return a.seq > b.seq;
                      });
            _overflowSorted = true;
        }
        while (!_overflow.empty() &&
               _overflow.back().when < _cursor + wheelSize) {
            placeInWheel(std::move(_overflow.back()));
            _overflow.pop_back();
        }
        _overflowMin =
            _overflow.empty() ? maxTick : _overflow.back().when;
    }

    /** First occupied bucket at or after @p from, in circular order. */
    std::size_t
    nextOccupiedBucket(std::size_t from) const
    {
        std::size_t w = from >> 6;
        std::uint64_t word = _occupied[w] >> (from & 63);
        if (word)
            return from + std::size_t(std::countr_zero(word));
        // Two-level bitmap walk: summary bit i covers _occupied[i].
        for (std::size_t step = 1; step <= occWords; ++step) {
            std::size_t ww = (w + step) & (occWords - 1);
            std::uint64_t s = _occupiedSummary[ww >> 6] >> (ww & 63);
            if (s == 0) {
                // Skip to the end of this summary word.
                step += 63 - (ww & 63);
                continue;
            }
            if ((s & 1) == 0) {
                // Skip to the next set summary bit.
                step += std::size_t(std::countr_zero(s)) - 1;
                continue;
            }
            return (ww << 6) +
                   std::size_t(std::countr_zero(_occupied[ww]));
        }
        return wheelSize;   // wheel is empty
    }

    /**
     * Locate the next event — advance the cursor to its tick and cache
     * its (bucket, slot, predecessor, when, priority) for runNext().
     * @return false if the queue is empty.
     */
    bool
    findNext()
    {
        if (_peekValid)
            return true;
        if (_size == 0)
            return false;
        promoteOverflow();
        if (_wheelCount == 0) {
            // Every pending event is far-future: jump the horizon.
            _cursor = _overflowMin;
            promoteOverflow();
        }
        std::size_t b =
            nextOccupiedBucket(std::size_t(_cursor & wheelMask));
        std::uint32_t best = _head[b];
        std::uint32_t best_prev = noSlot;
        for (std::uint32_t prev = best, slot = _next[best];
             slot != noSlot; prev = slot, slot = _next[slot]) {
            const Scheduled &ev = _slab[slot];
            const Scheduled &min = _slab[best];
            if (ev.priority < min.priority ||
                (ev.priority == min.priority && ev.seq < min.seq)) {
                best = slot;
                best_prev = prev;
            }
        }
        _cursor += (Tick(b) - _cursor) & wheelMask;
        _peekBucket = b;
        _peekSlot = best;
        _peekPrev = best_prev;
        _peekWhen = _slab[best].when;
        _peekPriority = _slab[best].priority;
        _peekValid = true;
        return true;
    }

    /** Every wheel event, in slots recycled through _freeHead. */
    std::vector<Scheduled> _slab;
    /** Per slot: next slot of its bucket list, or of the free list. */
    std::vector<std::uint32_t> _next;
    std::uint32_t _freeHead = noSlot;
    /**
     * First slot of each bucket's list. Deliberately uninitialized and
     * inline: it is read only while the bucket's _occupied bit is set,
     * so a fresh queue never touches its 64 KiB. A per-queue heap
     * array would instead make every short-lived System grow and trim
     * the heap top.
     */
    std::uint32_t _head[wheelSize];
    std::array<std::uint64_t, occWords> _occupied{};
    std::array<std::uint64_t, occWords / 64> _occupiedSummary{};
    /** Events beyond the horizon, sorted descending on demand. */
    std::vector<Scheduled> _overflow;
    bool _overflowSorted = true;
    Tick _overflowMin = maxTick;
    /** Lower bound on every pending event's tick. */
    Tick _cursor = 0;
    std::size_t _wheelCount = 0;
    std::size_t _size = 0;
    /** @name Cached position of the next event (set by findNext()) */
    /// @{
    bool _peekValid = false;
    std::size_t _peekBucket = 0;
    std::uint32_t _peekSlot = 0;
    /** Slot before _peekSlot in its bucket list, or noSlot at the head. */
    std::uint32_t _peekPrev = noSlot;
    Tick _peekWhen = 0;
    int _peekPriority = 0;
    /// @}
    Tick _now = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _nextSeq = 0;
    bool _stopRequested = false;
    trace::Tracer *_tracer = nullptr;
    prof::ThreadProfile *_prof = nullptr;
    std::function<void(Tick)> _advanceHook;
};

} // namespace silo

#endif // SILO_SIM_EVENT_QUEUE_HH
