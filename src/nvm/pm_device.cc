#include "nvm/pm_device.hh"

#include <algorithm>
#include <bit>

namespace silo::nvm
{

namespace
{

/**
 * Where a write to @p pm_line goes: the resident line (valid, not
 * evicting, holding pm_line) if any; otherwise the first free line;
 * otherwise the LRU non-evicting line (smallest lastUse; the strict <
 * keeps the lowest index on ties), or none if every line is evicting.
 * Each is one pass over the compact tags (and the LRU stamps).
 */
struct Placement
{
    int hit = -1;
    int free = -1;
    int lru = -1;
};

Placement
place(const PmBuffer &buf, Addr pm_line)
{
    Placement p;
    p.hit = buf.find(pm_line, PmBuffer::logBit);
    if (p.hit >= 0)
        return p;
    const unsigned n = buf.size();
    for (unsigned i = 0; i < n; ++i) {
        if (!buf.valid(i)) {
            p.free = int(i);
            return p;
        }
    }
    for (unsigned i = 0; i < n; ++i) {
        if (!buf.evicting(i) &&
            (p.lru < 0 || buf.lastUse[i] < buf.lastUse[unsigned(p.lru)]))
            p.lru = int(i);
    }
    return p;
}

/** Absorb the words into resident line @p i (§III-E cases 1-3). */
void
coalesce(PmBuffer &buf, unsigned i, std::uint32_t word_mask,
         const LineValues &values, Tick now, PmStats *stats)
{
    buf.data[i].merge(word_mask, values);
    buf.lastUse[i] = now;
    if (stats)
        ++stats->coalesced;
}

void
fillLine(PmBuffer &buf, unsigned i, Addr pm_line,
         std::uint32_t word_mask, const LineValues &values,
         bool log_region, Tick now)
{
    buf.tags[i] = pm_line | PmBuffer::validBit |
                  (log_region ? PmBuffer::logBit : 0);
    buf.lastUse[i] = now;
    buf.data[i].wordMask = 0;
    buf.data[i].merge(word_mask, values);
}

/** Apply line @p i 's content to media and count DCW'd word writes. */
unsigned
applyToMedia(WordStore &media, const PmBuffer &buf, unsigned i,
             PmStats *stats)
{
    const BufferLine &line = buf.data[i];
    const bool log_region = buf.logRegion(i);
    const Addr base = buf.base(i);
    unsigned changed = 0;
    unsigned suppressed = 0;
    std::uint32_t bits = line.wordMask;
    while (bits) {
        unsigned idx = unsigned(std::countr_zero(bits));
        bits &= bits - 1;
        Word value = line.values[idx];
        Addr word_addr = base + Addr(idx) * wordBytes;
        if (log_region) {
            // Log appends are fresh content; every dirty word writes.
            // Counted only: log::LogRegionStore keeps the log's contents.
            ++changed;
        } else if (media.load(word_addr) != value) {
            media.store(word_addr, value);
            ++changed;
        } else {
            ++suppressed;
        }
    }
    if (stats) {
        stats->wordWrites += changed;
        (log_region ? stats->logWordWrites : stats->dataWordWrites) +=
            changed;
        stats->dcwSuppressed += suppressed;
    }
    return changed;
}

/**
 * Begin evicting line @p i: its content reaches the media now. A line
 * DCW reduced to nothing frees at once; otherwise it stays, marked
 * evicting, until its media write ends.
 * @return the words programmed.
 */
unsigned
evictLine(WordStore &media, PmBuffer &buf, unsigned i, PmStats *stats)
{
    buf.tags[i] |= PmBuffer::evictingBit;
    unsigned changed = applyToMedia(media, buf, i, stats);
    if (stats)
        stats->evictionWords.sample(changed);
    if (changed == 0)
        buf.release(i);
    else if (stats)
        ++stats->lineWrites;
    return changed;
}

} // namespace

void
crashWrite(PersistentDomain &domain, Addr pm_line,
           std::uint32_t word_mask, const LineValues &values,
           bool log_region, Tick now, PmStats *stats)
{
    PmBuffer &buf = domain.pmBuffer;
    for (;;) {
        Placement p = place(buf, pm_line);
        if (p.hit >= 0) {
            coalesce(buf, unsigned(p.hit), word_mask, values, now, stats);
            return;
        }
        int idx = p.free;
        if (idx < 0 && p.lru >= 0) {
            evictLine(domain.media, buf, unsigned(p.lru), stats);
            if (!buf.valid(unsigned(p.lru)))
                idx = p.lru;   // DCW freed the slot
        }
        if (idx >= 0) {
            fillLine(buf, unsigned(idx), pm_line, word_mask, values,
                     log_region, now);
            return;
        }
        // Every line is busy evicting: the ADR flush empties the
        // buffer instead of waiting for the banks.
        drainBuffer(domain, stats);
    }
}

void
drainBuffer(PersistentDomain &domain, PmStats *stats)
{
    PmBuffer &buf = domain.pmBuffer;
    for (unsigned i = 0; i < buf.size(); ++i) {
        if (buf.valid(i) && !buf.evicting(i))
            applyToMedia(domain.media, buf, i, stats);
        buf.release(i);
    }
}

PmDevice::PmDevice(EventQueue &eq, const SimConfig &cfg,
                   PersistentDomain &domain)
    : _eq(eq), _domain(domain), _banks(cfg.pmBanks, 0)
{
}

unsigned
PmDevice::busyBanks() const
{
    unsigned busy = 0;
    for (Tick until : _banks)
        busy += until > _eq.now();
    return busy;
}

unsigned
PmDevice::bufferOccupancy() const
{
    const PmBuffer &buf = _domain.pmBuffer;
    unsigned occupied = 0;
    for (unsigned i = 0; i < buf.size(); ++i)
        occupied += buf.valid(i);
    return occupied;
}

Tick
PmDevice::occupyBank(unsigned bank, Cycles busy)
{
    Tick start = std::max(_eq.now(), _banks[bank]);
    _banks[bank] = start + busy;
    return _banks[bank];
}

void
PmDevice::startEviction(unsigned idx)
{
    Addr base = _domain.pmBuffer.base(idx);
    unsigned changed =
        evictLine(_domain.media, _domain.pmBuffer, idx, &_stats);
    if (changed == 0) {
        // DCW removed every word: no media write happens at all; the
        // slot frees immediately.
        _eq.scheduleAfter(0, [this] { notifyOneWaiter(); },
                          EventQueue::prioDevice, prof::Tag::Nvm);
        return;
    }

    Cycles busy = pmWriteBaseCycles + pmWritePerWordCycles * Cycles(changed);
    unsigned bank = bankOf(base);
    Tick done = occupyBank(bank, busy);
    if (auto *tr = _eq.tracer()) {
        // One sub-track per bank so concurrent programming pulses on
        // different banks render side by side.
        tr->completeSpan(
            tr->track("mem", "pm-bank" + std::to_string(bank)),
            "program", done - busy, done);
    }
    _eq.schedule(done, [this, idx] {
        _domain.pmBuffer.release(idx);
        notifyOneWaiter();
    }, EventQueue::prioDevice, prof::Tag::Nvm);
}

bool
PmDevice::tryWrite(Addr pm_line, std::uint32_t word_mask,
                   const LineValues &values, bool log_region)
{
    PmBuffer &buf = _domain.pmBuffer;
    Placement p = place(buf, pm_line);
    if (p.hit >= 0) {
        coalesce(buf, unsigned(p.hit), word_mask, values, _eq.now(),
                 &_stats);
        return true;
    }

    // Allocate a free slot, or evict the LRU non-evicting line.
    int free_idx = p.free;
    if (free_idx < 0) {
        if (p.lru < 0)
            return false;   // everything is mid-eviction: back-pressure
        startEviction(unsigned(p.lru));
        if (!buf.valid(unsigned(p.lru))) {
            // DCW freed the slot synchronously.
            free_idx = p.lru;
        } else {
            return false;   // retry once the eviction completes
        }
    }
    fillLine(buf, unsigned(free_idx), pm_line, word_mask, values,
             log_region, _eq.now());
    return true;
}

void
PmDevice::registerSlotWaiter(Callback cb)
{
    _slotWaiters.push_back(std::move(cb));
}

void
PmDevice::notifyOneWaiter()
{
    if (_slotWaiters.empty())
        return;
    Callback cb = _slotWaiters.take_front();
    cb();
}

Tick
PmDevice::read(Addr line_addr)
{
    Addr pm_line = pmLineAlign(line_addr);
    // Any valid line holding it serves the read, evicting or not.
    if (_domain.pmBuffer.find(pm_line, PmBuffer::evictingBit |
                                           PmBuffer::logBit) >= 0) {
        ++_stats.bufferHits;
        // Buffer reads are much faster than media reads.
        return _eq.now() + 8;
    }
    ++_stats.reads;
    unsigned bank = bankOf(pm_line);
    Tick start = std::max(_eq.now(), _banks[bank]);
    _banks[bank] = start + pmReadOccupancyCycles;
    return start + pmReadCycles;
}

} // namespace silo::nvm
