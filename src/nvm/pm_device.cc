#include "nvm/pm_device.hh"

#include <algorithm>
#include <bit>

namespace silo::nvm
{

namespace
{

/** The valid, non-evicting buffer line holding @p pm_line; -1 if none. */
int
findLine(const std::vector<BufferLine> &lines, Addr pm_line)
{
    for (unsigned i = 0; i < lines.size(); ++i) {
        if (lines[i].valid && !lines[i].evicting &&
            lines[i].base == pm_line) {
            return int(i);
        }
    }
    return -1;
}

/**
 * Absorb @p words into the resident line for @p pm_line (§III-E cases
 * 1-3). @return false if no line holds it.
 */
bool
coalesce(std::vector<BufferLine> &lines, Addr pm_line,
         const std::vector<WordWrite> &words, Tick now, PmStats *stats)
{
    int idx = findLine(lines, pm_line);
    if (idx < 0)
        return false;
    BufferLine &line = lines[idx];
    for (const auto &w : words)
        line.set(w.wordIdx, w.value);
    line.lastUse = now;
    if (stats)
        ++stats->coalesced;
    return true;
}

/** First free slot, or -1; @p lru is then the LRU non-evicting line. */
int
freeSlot(const std::vector<BufferLine> &lines, int &lru)
{
    lru = -1;
    for (unsigned i = 0; i < lines.size(); ++i) {
        if (!lines[i].valid)
            return int(i);
        if (!lines[i].evicting &&
            (lru < 0 || lines[i].lastUse < lines[lru].lastUse)) {
            lru = int(i);
        }
    }
    return -1;
}

void
fillLine(BufferLine &line, Addr pm_line,
         const std::vector<WordWrite> &words, bool log_region, Tick now)
{
    line.valid = true;
    line.base = pm_line;
    line.logRegion = log_region;
    line.lastUse = now;
    line.wordMask = 0;
    for (const auto &w : words)
        line.set(w.wordIdx, w.value);
    line.evicting = false;
}

/** Apply one line's content to media and count DCW'd word writes. */
unsigned
applyToMedia(WordStore &media, const BufferLine &line,
             log::PersistEventSink *sink, PmStats *stats)
{
    if (sink) {
        std::vector<std::pair<unsigned, Word>> words;
        std::uint32_t check_bits = line.wordMask;
        while (check_bits) {
            unsigned idx = unsigned(std::countr_zero(check_bits));
            check_bits &= check_bits - 1;
            words.emplace_back(idx, line.values[idx]);
        }
        sink->onMediaWrite(line.base, words, line.logRegion);
    }
    unsigned changed = 0;
    unsigned suppressed = 0;
    std::uint32_t bits = line.wordMask;
    while (bits) {
        unsigned idx = unsigned(std::countr_zero(bits));
        bits &= bits - 1;
        Word value = line.values[idx];
        Addr word_addr = line.base + Addr(idx) * wordBytes;
        if (line.logRegion) {
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
        (line.logRegion ? stats->logWordWrites : stats->dataWordWrites) +=
            changed;
        stats->dcwSuppressed += suppressed;
    }
    return changed;
}

/**
 * Begin evicting @p line: its content reaches the media now. A line
 * DCW reduced to nothing frees at once; otherwise it stays, marked
 * evicting, until its media write ends.
 * @return the words programmed.
 */
unsigned
evictLine(WordStore &media, BufferLine &line,
          log::PersistEventSink *sink, PmStats *stats)
{
    line.evicting = true;
    unsigned changed = applyToMedia(media, line, sink, stats);
    if (stats)
        stats->evictionWords.sample(changed);
    if (changed == 0)
        line = BufferLine{};
    else if (stats)
        ++stats->lineWrites;
    return changed;
}

} // namespace

PmStats::PmStats()
{
    group.addScalar(wordWrites);
    group.addScalar(lineWrites);
    group.addScalar(dcwSuppressed);
    group.addScalar(dataWordWrites);
    group.addScalar(logWordWrites);
    group.addScalar(reads);
    group.addScalar(bufferHits);
    group.addScalar(coalesced);
    group.addDistribution(evictionWords);
}

void
crashWrite(PersistentDomain &domain, Addr pm_line,
           const std::vector<WordWrite> &words, bool log_region,
           Tick now, log::PersistEventSink *sink, PmStats *stats)
{
    std::vector<BufferLine> &lines = domain.pmBuffer;
    while (!coalesce(lines, pm_line, words, now, stats)) {
        int lru;
        int idx = freeSlot(lines, lru);
        if (idx < 0 && lru >= 0) {
            evictLine(domain.media, lines[lru], sink, stats);
            if (!lines[lru].valid)
                idx = lru;   // DCW freed the slot
        }
        if (idx >= 0) {
            fillLine(lines[idx], pm_line, words, log_region, now);
            return;
        }
        // Every line is busy evicting: the ADR flush empties the
        // buffer instead of waiting for the banks.
        drainBuffer(domain, sink, stats);
    }
}

void
drainBuffer(PersistentDomain &domain, log::PersistEventSink *sink,
            PmStats *stats)
{
    for (auto &line : domain.pmBuffer) {
        if (line.valid && !line.evicting)
            applyToMedia(domain.media, line, sink, stats);
        line = BufferLine{};
    }
}

PmDevice::PmDevice(EventQueue &eq, const SimConfig &cfg,
                   PersistentDomain &domain)
    : _eq(eq), _cfg(cfg), _domain(domain), _banks(cfg.pmBanks, 0)
{
    if (auto *tr = _eq.tracer())
        _track = tr->track("mem", "pm");
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
    unsigned occupied = 0;
    for (const auto &line : _domain.pmBuffer)
        occupied += line.valid;
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
    BufferLine &line = _domain.pmBuffer[idx];
    Addr base = line.base;
    unsigned changed = evictLine(_domain.media, line, _check, &_stats);
    if (changed == 0) {
        // DCW removed every word: no media write happens at all; the
        // slot frees immediately.
        _eq.scheduleAfter(0, [this] { notifyOneWaiter(); },
                          EventQueue::prioDevice, prof::Tag::Nvm);
        return;
    }

    Cycles busy = _cfg.pmWriteBaseCycles +
                  _cfg.pmWritePerWordCycles * Cycles(changed);
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
        _domain.pmBuffer[idx] = BufferLine{};
        notifyOneWaiter();
    }, EventQueue::prioDevice, prof::Tag::Nvm);
}

bool
PmDevice::tryWrite(Addr pm_line, const std::vector<WordWrite> &words,
                   bool log_region)
{
    std::vector<BufferLine> &lines = _domain.pmBuffer;
    if (coalesce(lines, pm_line, words, _eq.now(), &_stats))
        return true;

    // Allocate a free slot, or evict the LRU non-evicting line.
    int lru;
    int free_idx = freeSlot(lines, lru);
    if (free_idx < 0) {
        if (lru < 0)
            return false;   // everything is mid-eviction: back-pressure
        startEviction(unsigned(lru));
        if (!lines[lru].valid) {
            // DCW freed the slot synchronously.
            free_idx = lru;
        } else {
            return false;   // retry once the eviction completes
        }
    }
    fillLine(lines[free_idx], pm_line, words, log_region, _eq.now());
    return true;
}

void
PmDevice::registerSlotWaiter(std::function<void()> cb)
{
    _slotWaiters.push_back(std::move(cb));
}

void
PmDevice::notifyOneWaiter()
{
    if (_slotWaiters.empty())
        return;
    auto cb = std::move(_slotWaiters.front());
    _slotWaiters.pop_front();
    cb();
}

Tick
PmDevice::read(Addr line_addr)
{
    Addr pm_line = pmLineAlign(line_addr);
    for (const auto &line : _domain.pmBuffer) {
        if (line.valid && line.base == pm_line) {
            ++_stats.bufferHits;
            // Buffer reads are much faster than media reads.
            return _eq.now() + 8;
        }
    }
    ++_stats.reads;
    unsigned bank = bankOf(pm_line);
    Tick start = std::max(_eq.now(), _banks[bank]);
    _banks[bank] = start + _cfg.pmReadOccupancyCycles;
    return start + _cfg.pmReadCycles;
}

void
PmDevice::drainAll()
{
    if (auto *tr = _eq.tracer())
        tr->instant(_track, "buffer-drain", _eq.now());
    drainBuffer(_domain, _check, &_stats);
}

} // namespace silo::nvm
