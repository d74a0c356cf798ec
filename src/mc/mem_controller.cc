#include "mc/mem_controller.hh"

#include <algorithm>
#include <bit>

namespace silo::mc
{

namespace
{

/** WPQ forwarding / controller overhead for reads. */
constexpr Cycles mcForwardCycles = 4;

/** The dirty words of @p entry, ascending. */
std::vector<nvm::WordWrite>
wordsOf(const WpqEntry &entry)
{
    std::vector<nvm::WordWrite> words;
    words.reserve(std::size_t(std::popcount(entry.wordMask)));
    std::uint32_t bits = entry.wordMask;
    while (bits) {
        unsigned idx = unsigned(std::countr_zero(bits));
        bits &= bits - 1;
        words.push_back({idx, entry.values[idx]});
    }
    return words;
}

/** Channel transfer time for one drained entry. */
Cycles
transferCycles(unsigned bytes)
{
    // 16 B per cycle, minimum 2 cycles of command overhead.
    return std::max<Cycles>(2, bytes / 16);
}

} // namespace

MemController::MemController(EventQueue &eq, const SimConfig &cfg,
                             nvm::PmDevice &pm, PersistentDomain &domain,
                             unsigned index, std::string name)
    : _eq(eq), _cfg(cfg), _pm(pm), _domain(domain),
      _st(domain.mcs.at(index)), _stats(name)
{
    if (auto *tr = _eq.tracer())
        _track = tr->track("mem", std::move(name));
}

bool
MemController::enqueue(WpqEntry &&entry)
{
    // Coalesce into an existing same-line, same-disposition entry.
    for (auto &e : _st.wpq) {
        if (e.key == entry.key && e.held == entry.held &&
            e.logRegion == entry.logRegion) {
            std::uint32_t bits = entry.wordMask;
            while (bits) {
                unsigned idx = unsigned(std::countr_zero(bits));
                bits &= bits - 1;
                e.set(idx, entry.values[idx]);
            }
            e.bytes = std::min<unsigned>(lineBytes,
                                         e.bytes + entry.bytes);
            ++_coalesced;
            return true;
        }
    }

    // Two slots stay reserved for log-region writes so that logging
    // can always make forward progress even when buffered data writes
    // (e.g., LAD's held lines) fill the queue.
    unsigned reserve = _cfg.wpqEntries > 8 ? 2 : 0;
    unsigned limit = entry.logRegion ? _cfg.wpqEntries
                                     : _cfg.wpqEntries - reserve;
    if (_st.wpq.size() >= limit) {
        ++_fullStalls;
        return false;
    }

    if (entry.held)
        ++_st.heldCount;
    ++_writes;
    _bytes += entry.bytes;
    _st.wpq.push_back(std::move(entry));
    _occupancy.sample(_st.wpq.size());
    scheduleDrain();
    return true;
}

bool
MemController::tryWriteLine(Addr line_addr,
                            const std::array<Word, wordsPerLine> &values,
                            bool evicted, bool held)
{
    WpqEntry entry;
    entry.key = lineAlign(line_addr);
    entry.pmLine = pmLineAlign(line_addr);
    entry.bytes = lineBytes;
    entry.held = held;
    unsigned base = unsigned((entry.key - entry.pmLine) / wordBytes);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        entry.set(base + w, values[w]);

    if (!enqueue(std::move(entry)))
        return false;
    if (_check)
        _check->onWpqAcceptLine(lineAlign(line_addr), values, held);
    if (evicted && _evictionObserver)
        _evictionObserver(lineAlign(line_addr));
    return true;
}

bool
MemController::tryWriteWord(Addr word_addr, Word value)
{
    WpqEntry entry;
    entry.key = lineAlign(word_addr);
    entry.pmLine = pmLineAlign(word_addr);
    entry.bytes = wordBytes;
    entry.set(unsigned((wordAlign(word_addr) - entry.pmLine) /
                       wordBytes),
              value);
    if (!enqueue(std::move(entry)))
        return false;
    if (_check)
        _check->onWpqAcceptWord(wordAlign(word_addr), value);
    return true;
}

bool
MemController::tryWriteLog(Addr rec_addr, const log::LogRecord &record)
{
    WpqEntry entry;
    entry.key = lineAlign(rec_addr);
    entry.pmLine = pmLineAlign(rec_addr);
    entry.logRegion = true;
    entry.bytes = record.sizeBytes();
    // Mark every word the record's byte extent touches (the values are
    // placeholders: LogRegionStore keeps the record).
    Addr first = wordAlign(rec_addr);
    Addr last = wordAlign(rec_addr + record.sizeBytes() - 1);
    for (Addr a = first; a <= last; a += wordBytes)
        entry.set(unsigned((a - entry.pmLine) / wordBytes), 0);

    if (!enqueue(std::move(entry)))
        return false;
    // Accepted into the ADR domain: the record is durable.
    _domain.logs.persist(rec_addr, record);
    return true;
}

void
MemController::writeWord(Addr word_addr, Word value,
                         std::function<void()> done)
{
    if (tryWriteWord(word_addr, value)) {
        done();
        return;
    }
    requestWriteSlot([this, word_addr, value,
                      done = std::move(done)]() mutable {
        writeWord(word_addr, value, std::move(done));
    });
}

void
MemController::writeLog(Addr rec_addr, const log::LogRecord &record,
                        std::function<void()> done)
{
    // Try first: the common case never touches the log path's map.
    if (tryWriteLog(rec_addr, record)) {
        done();
        return;
    }
    _st.logPath.emplace(rec_addr, record);
    retryLog(rec_addr, std::move(done));
}

void
MemController::retryLog(Addr rec_addr, std::function<void()> done)
{
    requestWriteSlot([this, rec_addr, done = std::move(done)]() mutable {
        auto it = _st.logPath.find(rec_addr);
        if (it == _st.logPath.end())
            return;   // a crash already persisted it (flushLogPath)
        if (!tryWriteLog(rec_addr, it->second)) {
            retryLog(rec_addr, std::move(done));
            return;
        }
        _st.logPath.erase(it);
        done();
    });
}

void
MemController::requestWriteSlot(std::function<void()> cb)
{
    _writeWaiters.push_back(std::move(cb));
}

void
MemController::notifyWaiters(unsigned count)
{
    while (count-- && !_writeWaiters.empty()) {
        auto cb = std::move(_writeWaiters.front());
        _writeWaiters.pop_front();
        cb();
    }
}

void
MemController::releaseHeld(Addr line_addr)
{
    Addr key = lineAlign(line_addr);
    bool released = false;
    for (auto &e : _st.wpq) {
        if (e.held && e.key == key) {
            e.held = false;
            --_st.heldCount;
            released = true;
        }
    }
    if (released && _check)
        _check->onHeldRelease(key);
    scheduleDrain();
}

void
MemController::scheduleDrain(Cycles delay)
{
    if (_drainScheduled)
        return;
    _drainScheduled = true;
    _eq.scheduleAfter(delay, [this] {
        _drainScheduled = false;
        drainOne();
    }, EventQueue::prioDevice, prof::Tag::Mc);
}

void
MemController::drainOne()
{
    // Oldest drainable (non-held) entry first.
    auto &wpq = _st.wpq;
    auto it = std::find_if(wpq.begin(), wpq.end(),
                           [](const WpqEntry &e) { return !e.held; });
    if (it == wpq.end())
        return;

    if (!_pm.tryWrite(it->pmLine, wordsOf(*it), it->logRegion)) {
        // Device buffer is saturated; resume when a slot frees.
        _pm.registerSlotWaiter([this] { scheduleDrain(); });
        return;
    }

    Cycles transfer = transferCycles(it->bytes);
    if (auto *tr = _eq.tracer()) {
        tr->completeSpan(_track,
                         it->logRegion ? "drain-log" : "drain-data",
                         _eq.now(), _eq.now() + transfer);
    }
    wpq.erase(it);
    notifyWaiters(1);
    if (!wpq.empty())
        scheduleDrain(transfer);
}

void
MemController::read(Addr line_addr, std::function<void()> done)
{
    Addr key = lineAlign(line_addr);
    for (const auto &e : _st.wpq) {
        if (e.key == key && !e.logRegion) {
            ++_forwards;
            _eq.scheduleAfter(mcForwardCycles, std::move(done),
                              EventQueue::prioDevice, prof::Tag::Mc);
            return;
        }
    }
    ++_reads;
    Tick completion = _pm.read(line_addr) + mcForwardCycles;
    _eq.schedule(completion, std::move(done), EventQueue::prioDevice,
                 prof::Tag::Mc);
}

void
MemController::drainAll()
{
    if (auto *tr = _eq.tracer())
        tr->instant(_track, "shutdown-drain", _eq.now());
    crashDrain(_st, _domain, _eq.now(), _check, &_pm.pmStats());
}

void
flushLogPath(McState &mc, log::LogRegionStore &logs)
{
    for (const auto &[addr, record] : mc.logPath)
        logs.persist(addr, record);
    mc.logPath.clear();
}

void
crashDrain(McState &mc, PersistentDomain &domain, Tick now,
           log::PersistEventSink *sink, nvm::PmStats *pm_stats)
{
    // Held entries are revocable-uncommitted: discarded, not applied.
    for (const auto &e : mc.wpq) {
        if (!e.held) {
            nvm::crashWrite(domain, e.pmLine, wordsOf(e), e.logRegion,
                            now, pm_stats);
        } else if (sink) {
            sink->onHeldDiscard(e.key);
        }
    }
    mc.wpq.clear();
    mc.heldCount = 0;
    nvm::drainBuffer(domain, pm_stats);
}

std::optional<Word>
adrValue(const PersistentDomain &domain, Addr word)
{
    const Addr pm_line = pmLineAlign(word);
    const unsigned idx = unsigned((word - pm_line) / wordBytes);
    const std::uint32_t bit = std::uint32_t(1) << idx;
    // The drain applies the controllers in order, each WPQ front to
    // back, so the last entry holding the word wins.
    for (auto mc = domain.mcs.rbegin(); mc != domain.mcs.rend(); ++mc) {
        for (auto e = mc->wpq.rbegin(); e != mc->wpq.rend(); ++e) {
            if (!e->held && !e->logRegion && e->pmLine == pm_line &&
                (e->wordMask & bit))
                return e->values[idx];
        }
    }
    // An evicting line is in the media already; a log line's values
    // are placeholders.
    for (const nvm::BufferLine &line : domain.pmBuffer) {
        if (line.valid && !line.evicting && !line.logRegion &&
            line.base == pm_line && (line.wordMask & bit))
            return line.values[idx];
    }
    if (domain.media.contains(word))
        return domain.media.load(word);
    return std::nullopt;
}

} // namespace silo::mc
