/**
 * @file
 * Differential test of the on-PM buffer's tag index against the rule
 * it replaced: a scan of the full lines for the resident line
 * (findLine) and then for the first free or LRU line (freeSlot).
 *
 * The reference below is the previous device, kept verbatim in
 * behaviour: lines that carry their own base, state and LRU stamp,
 * searched line by line, with the same eviction, DCW and bank timing.
 * Both devices take one random stream of tryWrite() and crashWrite()
 * calls, reads, buffer drains and advances of time (which complete
 * evictions and wake slot waiters). After every step they must agree
 * on each call's result, on every buffer line, on the media and on
 * the PmStats counters.
 */

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <vector>

#include "nvm/pm_device.hh"

namespace silo::nvm
{
namespace
{

/** A buffer line as the reference keeps it. */
struct RefLine
{
    Addr base = 0;
    std::uint32_t wordMask = 0;
    LineValues values{};
    bool logRegion = false;
    Tick lastUse = 0;
    bool evicting = false;
    bool valid = false;
};

/** The counters PmStats keeps, as the reference counts them. */
struct RefStats
{
    std::uint64_t wordWrites = 0, lineWrites = 0, dcwSuppressed = 0;
    std::uint64_t dataWordWrites = 0, logWordWrites = 0, reads = 0;
    std::uint64_t bufferHits = 0, coalesced = 0;
};

/** The device before the tag index: every lookup scans the lines. */
class RefPm
{
  public:
    RefPm(EventQueue &eq, const SimConfig &cfg)
        : _eq(eq), _lines(cfg.onPmBufferLines), _banks(cfg.pmBanks, 0)
    {
    }

    bool
    tryWrite(Addr pm_line, std::uint32_t mask, const LineValues &values,
             bool log_region)
    {
        if (coalesce(pm_line, mask, values, _eq.now()))
            return true;
        int lru;
        int free_idx = freeSlot(lru);
        if (free_idx < 0) {
            if (lru < 0)
                return false;
            startEviction(unsigned(lru));
            if (!_lines[lru].valid)
                free_idx = lru;
            else
                return false;
        }
        fill(_lines[free_idx], pm_line, mask, values, log_region,
             _eq.now());
        return true;
    }

    void
    crashWrite(Addr pm_line, std::uint32_t mask, const LineValues &values,
               bool log_region, Tick now)
    {
        while (!coalesce(pm_line, mask, values, now)) {
            int lru;
            int idx = freeSlot(lru);
            if (idx < 0 && lru >= 0) {
                evictLine(_lines[lru]);
                if (!_lines[lru].valid)
                    idx = lru;
            }
            if (idx >= 0) {
                fill(_lines[idx], pm_line, mask, values, log_region, now);
                return;
            }
            drainBuffer();
        }
    }

    void
    drainBuffer()
    {
        for (RefLine &line : _lines) {
            if (line.valid && !line.evicting)
                applyToMedia(line);
            line = RefLine{};
        }
    }

    Tick
    read(Addr line_addr)
    {
        Addr pm_line = pmLineAlign(line_addr);
        for (const RefLine &line : _lines) {
            if (line.valid && line.base == pm_line) {
                ++stats.bufferHits;
                return _eq.now() + 8;
            }
        }
        ++stats.reads;
        unsigned bank = bankOf(pm_line);
        Tick start = std::max(_eq.now(), _banks[bank]);
        _banks[bank] = start + pmReadOccupancyCycles;
        return start + pmReadCycles;
    }

    void registerSlotWaiter(int *woken) { _waiters.push_back(woken); }

    const std::vector<RefLine> &lines() const { return _lines; }

    WordStore media;
    RefStats stats;

  private:
    unsigned bankOf(Addr addr) const
    {
        return unsigned((addr / pmBufferLineBytes) % _banks.size());
    }

    int
    findLine(Addr pm_line) const
    {
        for (unsigned i = 0; i < _lines.size(); ++i) {
            if (_lines[i].valid && !_lines[i].evicting &&
                _lines[i].base == pm_line)
                return int(i);
        }
        return -1;
    }

    bool
    coalesce(Addr pm_line, std::uint32_t mask, const LineValues &values,
             Tick now)
    {
        int idx = findLine(pm_line);
        if (idx < 0)
            return false;
        RefLine &line = _lines[idx];
        for (std::uint32_t bits = mask; bits; bits &= bits - 1) {
            unsigned w = unsigned(std::countr_zero(bits));
            line.wordMask |= std::uint32_t(1) << w;
            line.values[w] = values[w];
        }
        line.lastUse = now;
        ++stats.coalesced;
        return true;
    }

    int
    freeSlot(int &lru) const
    {
        lru = -1;
        for (unsigned i = 0; i < _lines.size(); ++i) {
            if (!_lines[i].valid)
                return int(i);
            if (!_lines[i].evicting &&
                (lru < 0 || _lines[i].lastUse < _lines[lru].lastUse))
                lru = int(i);
        }
        return -1;
    }

    static void
    fill(RefLine &line, Addr pm_line, std::uint32_t mask,
         const LineValues &values, bool log_region, Tick now)
    {
        line.valid = true;
        line.base = pm_line;
        line.logRegion = log_region;
        line.lastUse = now;
        line.wordMask = 0;
        for (std::uint32_t bits = mask; bits; bits &= bits - 1) {
            unsigned w = unsigned(std::countr_zero(bits));
            line.wordMask |= std::uint32_t(1) << w;
            line.values[w] = values[w];
        }
        line.evicting = false;
    }

    unsigned
    applyToMedia(const RefLine &line)
    {
        unsigned changed = 0, suppressed = 0;
        for (std::uint32_t bits = line.wordMask; bits; bits &= bits - 1) {
            unsigned w = unsigned(std::countr_zero(bits));
            Addr addr = line.base + Addr(w) * wordBytes;
            if (line.logRegion) {
                ++changed;
            } else if (media.load(addr) != line.values[w]) {
                media.store(addr, line.values[w]);
                ++changed;
            } else {
                ++suppressed;
            }
        }
        stats.wordWrites += changed;
        (line.logRegion ? stats.logWordWrites : stats.dataWordWrites) +=
            changed;
        stats.dcwSuppressed += suppressed;
        return changed;
    }

    unsigned
    evictLine(RefLine &line)
    {
        line.evicting = true;
        unsigned changed = applyToMedia(line);
        if (changed == 0)
            line = RefLine{};
        else
            ++stats.lineWrites;
        return changed;
    }

    void
    startEviction(unsigned idx)
    {
        Addr base = _lines[idx].base;
        unsigned changed = evictLine(_lines[idx]);
        if (changed == 0) {
            _eq.scheduleAfter(0, [this] { notifyOneWaiter(); });
            return;
        }
        Cycles busy =
            pmWriteBaseCycles + pmWritePerWordCycles * Cycles(changed);
        unsigned bank = bankOf(base);
        Tick start = std::max(_eq.now(), _banks[bank]);
        _banks[bank] = start + busy;
        _eq.schedule(_banks[bank], [this, idx] {
            _lines[idx] = RefLine{};
            notifyOneWaiter();
        });
    }

    void
    notifyOneWaiter()
    {
        if (_waiters.empty())
            return;
        ++*_waiters.front();
        _waiters.erase(_waiters.begin());
    }

    EventQueue &_eq;
    std::vector<RefLine> _lines;
    std::vector<Tick> _banks;
    std::vector<int *> _waiters;
};

void
expectSameState(const PersistentDomain &domain, const PmDevice &pm,
                const RefPm &ref, const std::vector<Addr> &lines, int step)
{
    const PmBuffer &buf = domain.pmBuffer;
    ASSERT_EQ(buf.size(), ref.lines().size());
    for (unsigned i = 0; i < buf.size(); ++i) {
        const RefLine &want = ref.lines()[i];
        ASSERT_EQ(buf.valid(i), want.valid)
            << "step " << step << " line " << i;
        if (!want.valid)
            continue;
        ASSERT_EQ(buf.base(i), want.base) << "step " << step;
        ASSERT_EQ(buf.evicting(i), want.evicting) << "step " << step;
        ASSERT_EQ(buf.logRegion(i), want.logRegion) << "step " << step;
        ASSERT_EQ(buf.lastUse[i], want.lastUse) << "step " << step;
        ASSERT_EQ(buf.data[i].wordMask, want.wordMask) << "step " << step;
        for (std::uint32_t bits = want.wordMask; bits; bits &= bits - 1) {
            unsigned w = unsigned(std::countr_zero(bits));
            ASSERT_EQ(buf.data[i].values[w], want.values[w]);
        }
    }
    for (Addr line : lines) {
        for (unsigned w = 0; w < pmBufferLineBytes / wordBytes; ++w) {
            Addr addr = line + Addr(w) * wordBytes;
            ASSERT_EQ(domain.media.contains(addr),
                      ref.media.contains(addr));
            ASSERT_EQ(domain.media.load(addr), ref.media.load(addr))
                << "step " << step;
        }
    }
    ASSERT_EQ(pm.mediaWordWrites(), ref.stats.wordWrites) << "step " << step;
    ASSERT_EQ(pm.mediaLineWrites(), ref.stats.lineWrites);
    ASSERT_EQ(pm.dcwSuppressedWords(), ref.stats.dcwSuppressed);
    ASSERT_EQ(pm.dataRegionWordWrites(), ref.stats.dataWordWrites);
    ASSERT_EQ(pm.logRegionWordWrites(), ref.stats.logWordWrites);
    ASSERT_EQ(pm.mediaReads(), ref.stats.reads);
    ASSERT_EQ(pm.bufferReadHits(), ref.stats.bufferHits);
    ASSERT_EQ(pm.bufferCoalescedWrites(), ref.stats.coalesced);
}

/** Run @p eq up to tick @p t, so that now() == t. */
void
advanceTo(EventQueue &eq, Tick t)
{
    eq.schedule(t, [] {});
    eq.runUntil(t);
}

TEST(PmBufferIndex, MatchesTheLineScanUnderRandomOperations)
{
    for (unsigned buffer_lines : {1u, 2u, 4u, 7u}) {
        SimConfig cfg;
        cfg.onPmBufferLines = buffer_lines;
        cfg.pmBanks = 2;
        EventQueue eq, ref_eq;
        PersistentDomain domain(cfg);
        PmDevice pm(eq, cfg, domain);
        RefPm ref(ref_eq, cfg);
        std::mt19937_64 rng(buffer_lines * 7919);

        // Six data lines and three log lines; the low values make DCW
        // suppress words and free whole lines.
        std::vector<Addr> lines;
        for (Addr i = 0; i < 9; ++i)
            lines.push_back(0x100000 + i * pmBufferLineBytes);
        int woken = 0, ref_woken = 0;
        for (int step = 0; step < 6000; ++step) {
            const unsigned op = unsigned(rng() % 100);
            const std::size_t which = rng() % lines.size();
            const Addr line = lines[which];
            const bool log_region = which >= 6;
            std::uint32_t mask = 0;
            LineValues values{};
            for (unsigned w = 0; w < pmBufferLineBytes / wordBytes; ++w) {
                if (rng() % 8 == 0) {
                    mask |= std::uint32_t(1) << w;
                    values[w] = rng() % 3;
                }
            }
            if (mask == 0) {
                mask = 1;
                values[0] = rng() % 3;
            }
            if (op < 50) {
                const bool ok = pm.tryWrite(line, mask, values, log_region);
                ASSERT_EQ(ok, ref.tryWrite(line, mask, values, log_region))
                    << "step " << step;
                if (!ok) {
                    pm.registerSlotWaiter([&woken] { ++woken; });
                    ref.registerSlotWaiter(&ref_woken);
                }
            } else if (op < 60) {
                crashWrite(domain, line, mask, values, log_region,
                           eq.now(), &pm.pmStats());
                ref.crashWrite(line, mask, values, log_region, eq.now());
            } else if (op < 75) {
                const Addr at = line + Addr(rng() % 4) * lineBytes;
                ASSERT_EQ(pm.read(at), ref.read(at)) << "step " << step;
            } else if (op < 77) {
                drainBuffer(domain, &pm.pmStats());
                ref.drainBuffer();
            } else {
                const Tick t = eq.now() + rng() % 600;
                advanceTo(eq, t);
                advanceTo(ref_eq, t);
                ASSERT_EQ(woken, ref_woken) << "step " << step;
            }
            expectSameState(domain, pm, ref, lines, step);
        }
    }
}

} // namespace
} // namespace silo::nvm
