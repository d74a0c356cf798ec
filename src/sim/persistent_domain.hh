/**
 * @file
 * The persistent domain: everything that outlives power loss, as one
 * copyable value.
 *
 * Silo's crash semantics rest on the state the ADR and the battery keep
 * (§III-G): the media and the on-PM buffer, each memory controller's
 * WPQ and ADR log path, the PM log region, and the battery-backed
 * structures of the scheme. This file names all of it. The System owns
 * one PersistentDomain and its components use their parts in place
 * (PmDevice the media and buffer, MemController its McState,
 * LoggingScheme and its schemes the log region, the commit markers and
 * their battery state), so a crash is a function of this value and the
 * checker observing it (harness::crashDomain()). A crash sweep copies
 * the value after each event and crashes the copy
 * (harness::sweepCrashes()).
 *
 * The domain holds data only: no callback, event queue, cache or core,
 * and no pointer into the machine that owns it. Its one observer, the
 * log region's event sink, stays with the store object when contents
 * are copied (LogRegionStore's copy operations), so a copy reports to
 * no one until it is bound. The checker reads the domain it observes
 * in place instead of mirroring it, through a pointer of its own that
 * PersistencyChecker::onCrashBegin() moves to a crash copy. SW-eADR's
 * persistent caches are the one battery-backed structure the simulator
 * keeps in volatile state (the cache hierarchy): the scheme copies
 * their dirty data lines in at the crash
 * (LoggingScheme::captureAtCrash()).
 */

#ifndef SILO_SIM_PERSISTENT_DOMAIN_HH
#define SILO_SIM_PERSISTENT_DOMAIN_HH

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/log_region.hh"
#include "sim/ring.hh"
#include "sim/word_store.hh"

namespace silo
{

// A write to the on-PM buffer or the media names its words by the set
// bits of one line's 32-bit wordMask (nvm::BufferLine, mc::WpqEntry).
// With one bit per word of a 256 B line, no write can straddle a line,
// so the persistency checker needs no torn-write invariant.
static_assert(pmBufferLineBytes / wordBytes ==
                  std::numeric_limits<std::uint32_t>::digits,
              "wordMask needs exactly one bit per word of a buffer line");

/** The words of one 256 B line; a wordMask says which are present. */
using LineValues = std::array<Word, pmBufferLineBytes / wordBytes>;

namespace nvm
{

/** The dirty words of one 256 B on-PM buffer line (§III-E). */
struct BufferLine
{
    /** Bit i of wordMask gates values[i]. */
    std::uint32_t wordMask = 0;
    LineValues values{};

    /** Take the words of @p from that @p mask selects. */
    void
    merge(std::uint32_t mask, const LineValues &from)
    {
        wordMask |= mask;
        for (std::uint32_t bits = mask; bits; bits &= bits - 1) {
            unsigned idx = unsigned(std::countr_zero(bits));
            values[idx] = from[idx];
        }
    }
};

/**
 * The on-PM write-coalescing buffer (§III-E): its lines and the
 * compact index every lookup scans instead of them. A line's tag is
 * its 256 B-aligned base with its state in the bits below, so each
 * lookup is one masked compare per 8 B tag (find()); the LRU stamps
 * sit in their own array, read only to pick a victim.
 */
struct PmBuffer
{
    /** @name Tag state bits */
    /// @{
    static constexpr Addr validBit = 1;
    /** Its media write is in flight (already applied to the media). */
    static constexpr Addr evictingBit = 2;
    /** A log-region line: its values are placeholders. */
    static constexpr Addr logBit = 4;
    /// @}

    PmBuffer() = default;
    explicit PmBuffer(unsigned lines)
        : tags(lines, 0), lastUse(lines, 0), data(lines)
    {
    }

    unsigned size() const { return unsigned(tags.size()); }

    bool valid(unsigned i) const { return tags[i] & validBit; }
    bool evicting(unsigned i) const { return tags[i] & evictingBit; }
    bool logRegion(unsigned i) const { return tags[i] & logBit; }
    Addr base(unsigned i) const { return tags[i] & ~Addr(0xff); }

    /**
     * The first valid line holding @p pm_line whose state bits, apart
     * from those in @p ignore, are clear. @return its index, or -1.
     */
    int
    find(Addr pm_line, Addr ignore) const
    {
        const Addr want = pm_line | validBit;
        for (unsigned i = 0; i < tags.size(); ++i) {
            if ((tags[i] & ~ignore) == want)
                return int(i);
        }
        return -1;
    }

    /** Empty line @p i. */
    void
    release(unsigned i)
    {
        tags[i] = 0;
        lastUse[i] = 0;
        data[i].wordMask = 0;
    }

    /** Per line: base | state bits; 0 for a free line. */
    std::vector<Addr> tags;
    /** Per line: tick of its last fill or coalesce (the LRU stamp). */
    std::vector<Tick> lastUse;
    std::vector<BufferLine> data;
};

} // namespace nvm

namespace mc
{

/** One write pending queue entry: durable once accepted (ADR). */
struct WpqEntry
{
    Addr key;          //!< 64 B line key (coalescing granularity)
    Addr pmLine;       //!< 256 B on-PM buffer line
    bool logRegion = false;
    /** LAD's buffered uncommitted line: durable but not drainable. */
    bool held = false;
    /**
     * Dirty words, indexed within the 256 B pm line: bit i of wordMask
     * gates values[i]. Drain paths iterate the mask ascending.
     */
    std::uint32_t wordMask = 0;
    LineValues values;
    unsigned bytes = 0;

    void
    set(unsigned idx, Word value)
    {
        wordMask |= std::uint32_t(1) << idx;
        values[idx] = value;
    }
};

/** One memory controller's share of the ADR domain. */
struct McState
{
    /** The WPQ, oldest entry first (sim/ring.hh). */
    Ring<WpqEntry> wpq;
    /**
     * ADR log path: records waiting for a WPQ slot, already durable,
     * in arrival order, each at its own log address. A crash persists
     * them in address order (mc::flushLogPath()).
     */
    std::vector<std::pair<Addr, log::LogRecord>> logPath;
    /** Held (LAD) entries in wpq. */
    unsigned heldCount = 0;
};

} // namespace mc

namespace silo_scheme
{

/** One entry of the battery-backed per-core log buffer (Fig. 6). */
struct LogBufferEntry
{
    bool flushBit = false;
    std::uint16_t txid = 0;
    Addr addr = 0;         //!< word-aligned data address
    Word oldData = 0;
    Word newData = 0;
    bool committed = false;
};

/** A new-data word staged in the battery domain for the data region. */
struct PendingUpdate
{
    std::uint16_t txid;
    Addr addr;
    Word newData;
    /**
     * Its transaction committed: a crash flushes it as redo. Overflow
     * stages an open transaction's words uncommitted; the commit
     * acknowledgement sets the bit.
     */
    bool committed = false;
    Tick stagedAt = 0;  //!< trace: start of the persist span
};

/** Silo's battery-backed state of one core (§III-G). */
struct CoreBattery
{
    std::deque<LogBufferEntry> buffer;   //!< the log buffer, a FIFO
    /**
     * Committed entries leave the buffer at commit and stage here,
     * still inside the controller's battery domain, until the WPQ
     * accepts their in-place update.
     */
    std::vector<PendingUpdate> staged;
};

} // namespace silo_scheme

namespace log
{

/** One entry of MorLog's ADR-domain per-core merge buffer. */
struct MorLogEntry
{
    std::uint16_t txid;
    Addr addr;
    Word oldData;
    Word newData;
    /** Entry is being written to the log region; it must stay in the
     *  ADR buffer until the write is accepted, or a crash in between
     *  would lose the undo data. */
    bool flushing = false;
};

/** A dirty data line of SW-eADR's persistent caches and its values. */
struct EadrLine
{
    Addr line;
    std::array<Word, wordsPerLine> values;
};

/** SW-eADR's persistent caches, as the crash finds them. */
struct EadrCaches
{
    /** Dirty lines the battery writes back, log lines included. */
    std::uint64_t dirtyLines = 0;
    /** The data-region ones with their architectural values. */
    std::vector<EadrLine> dataLines;
};

} // namespace log

/** Everything that survives a crash (see file header). */
struct PersistentDomain
{
    /** An empty domain, the target of a copy. */
    PersistentDomain() : logs(0) {}

    /** The domain of a machine built from @p cfg. */
    explicit PersistentDomain(const SimConfig &cfg)
        : pmBuffer(cfg.onPmBufferLines),
          mcs(cfg.numMemControllers ? cfg.numMemControllers : 1),
          logs(cfg.numCores), commitMarkers(cfg.numCores)
    {
        if (cfg.scheme == SchemeKind::Silo)
            silo.resize(cfg.numCores);
        if (cfg.scheme == SchemeKind::MorLog)
            morlog.resize(cfg.numCores);
    }

    /** The data-region words programmed into the PM media. */
    WordStore media;
    /** The on-PM buffer (ADR domain). */
    nvm::PmBuffer pmBuffer;
    /** Per memory controller: its WPQ and ADR log path. */
    std::vector<mc::McState> mcs;
    /** The per-thread PM log areas. */
    log::LogRegionStore logs;
    /**
     * Per core: the latest transaction's commit marker is durable, so
     * recovery commits it even if its Tx_end has not completed.
     */
    std::vector<bool> commitMarkers;
    /** Silo's log buffers and staged in-place updates, per core. */
    std::vector<silo_scheme::CoreBattery> silo;
    /** MorLog's ADR-domain merge buffers, per core. */
    std::vector<std::deque<log::MorLogEntry>> morlog;
    /** SW-eADR's persistent caches (filled at the crash). */
    log::EadrCaches eadr;
};

static_assert(std::is_copy_constructible_v<PersistentDomain>);

} // namespace silo

#endif // SILO_SIM_PERSISTENT_DOMAIN_HH
