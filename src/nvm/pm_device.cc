#include "nvm/pm_device.hh"

#include <algorithm>
#include <bit>

namespace silo::nvm
{

PmDevice::PmDevice(EventQueue &eq, const SimConfig &cfg)
    : _eq(eq), _cfg(cfg), _lines(cfg.onPmBufferLines),
      _banks(cfg.pmBanks, 0)
{
    _stats.addScalar(_wordWrites);
    _stats.addScalar(_lineWrites);
    _stats.addScalar(_dcwSuppressed);
    _stats.addScalar(_dataWordWrites);
    _stats.addScalar(_logWordWrites);
    _stats.addScalar(_reads);
    _stats.addScalar(_bufferHits);
    _stats.addScalar(_coalesced);
    _stats.addDistribution(_evictionWords);
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
    for (const auto &line : _lines)
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

int
PmDevice::findLine(Addr pm_line) const
{
    for (unsigned i = 0; i < _lines.size(); ++i) {
        if (_lines[i].valid && !_lines[i].evicting &&
            _lines[i].base == pm_line) {
            return int(i);
        }
    }
    return -1;
}

unsigned
PmDevice::applyToMedia(const BufferLine &line)
{
    if (_check) {
        std::vector<std::pair<unsigned, Word>> words;
        std::uint32_t check_bits = line.wordMask;
        while (check_bits) {
            unsigned idx = unsigned(std::countr_zero(check_bits));
            check_bits &= check_bits - 1;
            words.emplace_back(idx, line.values[idx]);
        }
        _check->onMediaWrite(line.base, words, line.logRegion);
    }
    unsigned changed = 0;
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
            ++_logWordWrites;
        } else if (_media.load(word_addr) != value) {
            _media.store(word_addr, value);
            ++changed;
            ++_dataWordWrites;
        } else {
            ++_dcwSuppressed;
        }
    }
    _wordWrites += changed;
    return changed;
}

void
PmDevice::startEviction(unsigned idx)
{
    BufferLine &line = _lines[idx];
    line.evicting = true;

    unsigned changed = applyToMedia(line);
    _evictionWords.sample(changed);
    if (changed == 0) {
        // DCW removed every word: no media write happens at all; the
        // slot frees immediately.
        line = BufferLine{};
        _eq.scheduleAfter(0, [this] { notifyOneWaiter(); },
                          EventQueue::prioDevice, prof::Tag::Nvm);
        return;
    }

    ++_lineWrites;
    Cycles busy = _cfg.pmWriteBaseCycles +
                  _cfg.pmWritePerWordCycles * Cycles(changed);
    unsigned bank = bankOf(line.base);
    Tick done = occupyBank(bank, busy);
    if (auto *tr = _eq.tracer()) {
        // One sub-track per bank so concurrent programming pulses on
        // different banks render side by side.
        tr->completeSpan(
            tr->track("mem", "pm-bank" + std::to_string(bank)),
            "program", done - busy, done);
    }
    _eq.schedule(done, [this, idx] {
        _lines[idx] = BufferLine{};
        notifyOneWaiter();
    }, EventQueue::prioDevice, prof::Tag::Nvm);
}

bool
PmDevice::tryWrite(Addr pm_line, const std::vector<WordWrite> &words,
                   bool log_region)
{
    // Coalesce into a resident line if one matches (§III-E cases 1-3).
    int idx = findLine(pm_line);
    if (idx >= 0) {
        BufferLine &line = _lines[idx];
        for (const auto &w : words)
            line.set(w.wordIdx, w.value);
        line.lastUse = _eq.now();
        ++_coalesced;
        return true;
    }

    // Allocate a free slot, or evict the LRU non-evicting line.
    int free_idx = -1;
    int lru_idx = -1;
    for (unsigned i = 0; i < _lines.size(); ++i) {
        if (!_lines[i].valid) {
            free_idx = int(i);
            break;
        }
        if (!_lines[i].evicting &&
            (lru_idx < 0 || _lines[i].lastUse < _lines[lru_idx].lastUse)) {
            lru_idx = int(i);
        }
    }

    if (free_idx < 0) {
        if (lru_idx < 0)
            return false;   // everything is mid-eviction: back-pressure
        startEviction(unsigned(lru_idx));
        if (!_lines[lru_idx].valid) {
            // DCW freed the slot synchronously.
            free_idx = lru_idx;
        } else {
            return false;   // retry once the eviction completes
        }
    }

    BufferLine &line = _lines[free_idx];
    line.valid = true;
    line.base = pm_line;
    line.logRegion = log_region;
    line.lastUse = _eq.now();
    line.wordMask = 0;
    for (const auto &w : words)
        line.set(w.wordIdx, w.value);
    line.evicting = false;
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
    for (const auto &line : _lines) {
        if (line.valid && line.base == pm_line) {
            ++_bufferHits;
            // Buffer reads are much faster than media reads.
            return _eq.now() + 8;
        }
    }
    ++_reads;
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
    for (auto &line : _lines) {
        if (line.valid && !line.evicting)
            applyToMedia(line);
        line = BufferLine{};
    }
}

} // namespace silo::nvm
