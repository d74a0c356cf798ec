/**
 * @file
 * The distributed PM log region (§III-B).
 *
 * Each thread owns a private log area and appends records at
 * monotonically increasing addresses (tracked by the per-core head and
 * tail registers of Table I). Appends never straddle an on-PM buffer
 * line, matching the batched layout of §III-F. Records become durable
 * when their write is accepted into the ADR domain; recovery walks the
 * live records in address order.
 *
 * Storage follows the hardware: one append-ordered record array per
 * thread, in fixed-size chunks allocated on first append (ERMIA's
 * append-only segment allocation). allocate() hands out addresses in
 * order, so a persist almost always appends; a record that waited in
 * the MC's ADR log path while a later one was accepted is inserted a
 * few slots from the end. Dropping a record clears its live bit,
 * truncation pops the [head, tail) suffix, and chunks wholly below the
 * head are freed. A record that becomes durable below its thread's
 * head (Silo: accepted after the commit truncated past it) is kept
 * apart, in address order: hasRecord() and liveRecordCount() see it,
 * but liveRecords() and recovery cover [head, tail) only.
 *
 * Segmented mode (DESIGN.md §4j): setSegmentation() divides each area
 * into fixed-size segments. Addresses stay monotonic (they double as
 * LSNs); the PHYSICAL ring capacity is modeled by the lifecycle engine
 * as "at most N non-clean segments at once", where a segment is
 * non-clean from the first append into it until reclaimSegment()
 * returns it to the clean state. Appends additionally never straddle a
 * segment boundary, so a segment is a self-contained scan unit.
 */

#ifndef SILO_SIM_LOG_REGION_HH
#define SILO_SIM_LOG_REGION_HH

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/address_map.hh"
#include "sim/log_record.hh"
#include "sim/logging.hh"
#include "sim/persist_event_sink.hh"

namespace silo::log
{

/** Structural contents and allocation state of the PM log region. */
class LogRegionStore
{
  public:
    explicit LogRegionStore(unsigned num_threads) : _areas(num_threads)
    {
        for (unsigned t = 0; t < num_threads; ++t) {
            _areas[t].tail = addr_map::logAreaBase(t);
            _areas[t].head = _areas[t].tail;
        }
    }

    /**
     * Copies take the contents only: the event sink belongs to the
     * store object, so a copy reports to no one until setEventSink(),
     * and an assignment keeps the target's sink.
     */
    LogRegionStore(const LogRegionStore &other)
        : _areas(other._areas), _segmentBytes(other._segmentBytes)
    {
    }

    LogRegionStore &
    operator=(const LogRegionStore &other)
    {
        _areas = other._areas;
        _segmentBytes = other._segmentBytes;
        return *this;
    }

    /**
     * Reserve space for a @p bytes record in thread @p tid 's area,
     * padding so the record does not straddle a 256 B on-PM buffer
     * line.
     * @return the record's address.
     */
    Addr
    allocate(unsigned tid, unsigned bytes)
    {
        Area &area = _areas.at(tid);
        Addr addr = area.tail;
        if (pmLineAlign(addr) != pmLineAlign(addr + bytes - 1))
            addr = pmLineAlign(addr) + pmBufferLineBytes;
        if (_segmentBytes != 0 &&
            segmentOf(tid, addr) != segmentOf(tid, addr + bytes - 1)) {
            addr = segmentBase(tid, segmentOf(tid, addr) + 1);
        }
        area.tail = addr + bytes;
        if (area.tail >= addr_map::logAreaBase(tid) +
                         addr_map::logAreaBytes) {
            fatal("log area exhausted; raise logAreaBytes");
        }
        return addr;
    }

    /**
     * Make @p record durable at @p addr, an address allocate() handed
     * out (called at WPQ accept). Stamps the record's LSN with its
     * first append address; a migrated copy arrives with the LSN
     * already set and keeps it.
     */
    void
    persist(Addr addr, const LogRecord &record)
    {
        std::size_t tid = ownerOf(addr);
        if (tid == _areas.size() || addr >= _areas[tid].tail)
            panic("log record persisted at an unallocated address");
        Area &area = _areas[tid];
        LogRecord &stored = addr < area.head ? area.belowHeadAt(addr)
                                             : area.slotAt(addr);
        stored = record;
        if (stored.lsn == 0)
            stored.lsn = addr;
        if (_sink)
            _sink->onLogPersist(addr, stored);
    }

    /**
     * Logically truncate thread @p tid 's log up to the current tail:
     * a head-pointer update in the on-chip register, no PM write.
     */
    void
    truncate(unsigned tid)
    {
        Area &area = _areas.at(tid);
        if (_sink)
            _sink->onLogTruncate(tid, area.head, area.tail);
        // Every record at or above the head lies in [head, tail), and
        // every slot below it is dead: the whole array goes.
        area.clear();
        area.head = area.tail;
    }

    /** Register the persistency checker (nullptr when disabled). */
    void setEventSink(PersistEventSink *sink) { _sink = sink; }

    /**
     * Visit thread @p tid 's live records in ascending address order,
     * in place: @p fn (Addr, const LogRecord &) must not modify the
     * store.
     */
    template <typename Fn>
    void
    forEachLive(unsigned tid, Fn &&fn) const
    {
        for (const Chunk &chunk : _areas.at(tid).chunks) {
            for (std::size_t i = 0; i < chunk.slots.size(); ++i) {
                if (chunk.live[i])
                    fn(chunk.slots[i].addr, chunk.slots[i].rec);
            }
        }
    }

    /** forEachLive() in descending address order. */
    template <typename Fn>
    void
    forEachLiveBackward(unsigned tid, Fn &&fn) const
    {
        const auto &chunks = _areas.at(tid).chunks;
        for (auto chunk = chunks.rbegin(); chunk != chunks.rend();
             ++chunk) {
            for (std::size_t i = chunk->slots.size(); i-- > 0;) {
                if (chunk->live[i])
                    fn(chunk->slots[i].addr, chunk->slots[i].rec);
            }
        }
    }

    /** Live records of thread @p tid in ascending address order. */
    std::vector<std::pair<Addr, LogRecord>>
    liveRecords(unsigned tid) const
    {
        std::vector<std::pair<Addr, LogRecord>> out;
        forEachLive(tid, [&](Addr addr, const LogRecord &rec) {
            out.emplace_back(addr, rec);
        });
        return out;
    }

    /** Total number of durable records, below the heads too (test hook). */
    std::size_t
    liveRecordCount() const
    {
        std::size_t n = 0;
        for (const Area &area : _areas) {
            n += area.belowHead.size();
            for (const Chunk &chunk : area.chunks)
                n += chunk.live.count();
        }
        return n;
    }

    /** @return true if a durable record exists at @p addr. */
    bool
    hasRecord(Addr addr) const
    {
        std::size_t tid = ownerOf(addr);
        return tid < _areas.size() && _areas[tid].find(addr) != nullptr;
    }

    /** Current tail of thread @p tid 's area (test hook). */
    Addr tail(unsigned tid) const { return _areas.at(tid).tail; }

    /** Current head of thread @p tid 's area (test hook). */
    Addr head(unsigned tid) const { return _areas.at(tid).head; }

    /** @name Segmented lifecycle (DESIGN.md §4j) */
    /// @{

    /** Enable segmentation with @p segment_bytes per segment (0 off). */
    void setSegmentation(std::uint64_t segment_bytes)
    {
        _segmentBytes = segment_bytes;
    }

    /** @return segment size in bytes; 0 when segmentation is off. */
    std::uint64_t segmentBytes() const { return _segmentBytes; }

    /** Virtual segment index of @p addr in thread @p tid 's area. */
    std::uint64_t
    segmentOf(unsigned tid, Addr addr) const
    {
        return (addr - addr_map::logAreaBase(tid)) / _segmentBytes;
    }

    /** Base address of virtual segment @p seg of thread @p tid. */
    Addr
    segmentBase(unsigned tid, std::uint64_t seg) const
    {
        return addr_map::logAreaBase(tid) + seg * _segmentBytes;
    }

    /** Oldest non-clean segment (the head's segment). */
    std::uint64_t headSegment(unsigned tid) const
    {
        return segmentOf(tid, _areas.at(tid).head);
    }

    /** The active (append) segment: the tail's segment. */
    std::uint64_t activeSegment(unsigned tid) const
    {
        return segmentOf(tid, _areas.at(tid).tail);
    }

    /**
     * Non-clean segments of thread @p tid: every virtual segment from
     * the head's to the tail's occupies one physical ring slot until
     * reclaimed.
     */
    std::uint64_t
    nonCleanSegments(unsigned tid) const
    {
        return activeSegment(tid) - headSegment(tid) + 1;
    }

    /** Bytes left in the active segment before the next boundary. */
    std::uint64_t
    activeSegmentRemaining(unsigned tid) const
    {
        return segmentBase(tid, activeSegment(tid) + 1) -
               _areas.at(tid).tail;
    }

    /** Live records inside segment @p seg of thread @p tid. */
    std::vector<std::pair<Addr, LogRecord>>
    recordsInSegment(unsigned tid, std::uint64_t seg) const
    {
        std::vector<std::pair<Addr, LogRecord>> out;
        forEachInSegment(tid, seg, [&](Addr addr, const LogRecord &rec) {
            out.emplace_back(addr, rec);
            return true;
        });
        return out;
    }

    /** @return true if segment @p seg of thread @p tid holds no record. */
    bool
    segmentEmpty(unsigned tid, std::uint64_t seg) const
    {
        return forEachInSegment(tid, seg,
                                [](Addr, const LogRecord &) {
                                    return false;
                                });
    }

    /**
     * Drop the durable record at @p addr (migration source copy or a
     * checkpointed record). The checker audits every drop.
     * @return true if a record was present.
     */
    bool
    dropRecord(Addr addr, LogDropReason reason)
    {
        std::size_t tid = ownerOf(addr);
        if (tid == _areas.size())
            return false;
        const LogRecord *rec = _areas[tid].find(addr);
        if (!rec)
            return false;
        if (_sink)
            _sink->onLogRecordDrop(addr, *rec, reason);
        _areas[tid].drop(addr, addr + 1);
        return true;
    }

    /**
     * Return segment @p seg of thread @p tid to the clean state:
     * drops any leftover records in address order (audited — a live
     * leftover is an invariant-6 violation the checker flags) and
     * advances the head past the segment.
     */
    void
    reclaimSegment(unsigned tid, std::uint64_t seg)
    {
        if (_sink) {
            forEachInSegment(tid, seg,
                             [this](Addr addr, const LogRecord &rec) {
                                 _sink->onLogRecordDrop(
                                     addr, rec, LogDropReason::Reclaimed);
                                 return true;
                             });
        }
        Area &area = _areas.at(tid);
        Addr seg_end = segmentBase(tid, seg + 1);
        area.drop(segmentBase(tid, seg), seg_end);
        if (area.head < seg_end)
            area.advanceHead(seg_end);
        if (area.tail < seg_end)
            area.tail = seg_end;
        if (_sink)
            _sink->onLogSegmentReclaimed(tid, seg);
    }
    /// @}

  private:
    /** A durable record and the address it sits at. */
    struct Slot
    {
        Addr addr = 0;
        LogRecord rec;
    };

    /** Records per storage chunk (48 KiB of slots). */
    static constexpr std::size_t chunkSlots = 1024;

    /** Up to chunkSlots consecutive slots and their live bits. */
    struct Chunk
    {
        std::vector<Slot> slots;
        std::bitset<chunkSlots> live;
    };

    /** First slot of @p slots at or above @p addr. */
    template <typename Slots>
    static auto
    slotPos(Slots &slots, Addr addr)
    {
        return std::lower_bound(
            slots.begin(), slots.end(), addr,
            [](const Slot &s, Addr a) { return s.addr < a; });
    }

    /** One thread's log area: its head/tail registers and records. */
    struct Area
    {
        Addr head = 0;
        Addr tail = 0;
        /**
         * Records persisted at or above the head, in address order;
         * every chunk but the last is full, and every slot below the
         * head is dead.
         */
        std::vector<Chunk> chunks;
        /** Records persisted below the head, in address order. */
        std::vector<Slot> belowHead;

        std::size_t
        size() const
        {
            return chunks.empty() ? 0
                                  : (chunks.size() - 1) * chunkSlots +
                                        chunks.back().slots.size();
        }

        Slot &slot(std::size_t i)
        {
            return chunks[i / chunkSlots].slots[i % chunkSlots];
        }
        const Slot &slot(std::size_t i) const
        {
            return chunks[i / chunkSlots].slots[i % chunkSlots];
        }
        bool live(std::size_t i) const
        {
            return chunks[i / chunkSlots].live[i % chunkSlots];
        }
        void setLive(std::size_t i, bool on)
        {
            chunks[i / chunkSlots].live[i % chunkSlots] = on;
        }

        /** Index of the first slot at or above @p addr. */
        std::size_t
        lowerBound(Addr addr) const
        {
            std::size_t lo = 0;
            std::size_t hi = size();
            while (lo < hi) {
                std::size_t mid = lo + (hi - lo) / 2;
                if (slot(mid).addr < addr)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            return lo;
        }

        /** The durable record at @p addr, or nullptr. */
        const LogRecord *
        find(Addr addr) const
        {
            if (addr < head) {
                auto it = slotPos(belowHead, addr);
                return it != belowHead.end() && it->addr == addr
                           ? &it->rec
                           : nullptr;
            }
            std::size_t i = lowerBound(addr);
            return i < size() && slot(i).addr == addr && live(i)
                       ? &slot(i).rec
                       : nullptr;
        }

        void
        pushBack(const Slot &s, bool on)
        {
            // A chunk's slots grow on demand, so a short-lived log (a
            // litmus case, a per-commit truncation) never holds a whole
            // chunk's 48 KiB.
            if (chunks.empty() || chunks.back().slots.size() == chunkSlots)
                chunks.emplace_back();
            chunks.back().slots.push_back(s);
            chunks.back().live[chunks.back().slots.size() - 1] = on;
        }

        /** The live slot for @p addr (at or above the head). */
        LogRecord &
        slotAt(Addr addr)
        {
            std::size_t n = size();
            std::size_t i =
                n == 0 || slot(n - 1).addr < addr ? n : lowerBound(addr);
            if (i == n) {
                pushBack(Slot{addr, {}}, true);
            } else if (slot(i).addr != addr) {
                // Accepted after later records: shift them up one.
                pushBack(Slot(slot(n - 1)), live(n - 1));
                for (std::size_t j = n - 1; j > i; --j) {
                    slot(j) = slot(j - 1);
                    setLive(j, live(j - 1));
                }
                slot(i).addr = addr;
            }
            setLive(i, true);
            return slot(i).rec;
        }

        /** The record for @p addr below the head. */
        LogRecord &
        belowHeadAt(Addr addr)
        {
            auto it = slotPos(belowHead, addr);
            if (it == belowHead.end() || it->addr != addr)
                it = belowHead.insert(it, Slot{addr, {}});
            return it->rec;
        }

        /** Drop every record in [@p lo, @p hi). */
        void
        drop(Addr lo, Addr hi)
        {
            belowHead.erase(slotPos(belowHead, lo), slotPos(belowHead, hi));
            for (std::size_t i = lowerBound(lo);
                 i < size() && slot(i).addr < hi; ++i) {
                setLive(i, false);
            }
        }

        /** Empty the array, keeping one chunk's storage for reuse. */
        void
        clear()
        {
            if (chunks.empty())
                return;
            chunks.resize(1);
            chunks[0].slots.clear();
            chunks[0].live.reset();
        }

        /**
         * Move the head up to @p new_head: live records it passes move
         * below the head, and chunks wholly below it are freed.
         */
        void
        advanceHead(Addr new_head)
        {
            std::size_t end = lowerBound(new_head);
            for (std::size_t i = lowerBound(head); i < end; ++i) {
                if (live(i)) {
                    belowHead.push_back(slot(i));
                    setLive(i, false);
                }
            }
            chunks.erase(chunks.begin(),
                         chunks.begin() +
                             std::ptrdiff_t(end / chunkSlots));
            head = new_head;
        }
    };

    /** The thread owning @p addr; _areas.size() outside every area. */
    std::size_t
    ownerOf(Addr addr) const
    {
        if (!addr_map::inLogRegion(addr))
            return _areas.size();
        return std::min<std::size_t>(
            (addr - addr_map::logRegionBase) / addr_map::logAreaBytes,
            _areas.size());
    }

    /**
     * Visit the records of segment @p seg of thread @p tid in address
     * order until @p fn returns false.
     * @return true if @p fn never returned false.
     */
    template <typename Fn>
    bool
    forEachInSegment(unsigned tid, std::uint64_t seg, Fn &&fn) const
    {
        const Area &area = _areas.at(tid);
        Addr lo = segmentBase(tid, seg);
        Addr hi = segmentBase(tid, seg + 1);
        for (auto it = slotPos(area.belowHead, lo);
             it != area.belowHead.end() && it->addr < hi; ++it) {
            if (!fn(it->addr, it->rec))
                return false;
        }
        for (std::size_t i = area.lowerBound(lo);
             i < area.size() && area.slot(i).addr < hi; ++i) {
            if (area.live(i) && !fn(area.slot(i).addr, area.slot(i).rec))
                return false;
        }
        return true;
    }

    std::vector<Area> _areas;
    /** Segment size in bytes; 0 = segmentation off. */
    std::uint64_t _segmentBytes = 0;
    PersistEventSink *_sink = nullptr;
};

} // namespace silo::log

#endif // SILO_SIM_LOG_REGION_HH
