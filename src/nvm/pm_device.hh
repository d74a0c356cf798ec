/**
 * @file
 * The persistent-memory DIMM model.
 *
 * Implements the paper's PM substrate (§III-E, Table II): banked
 * phase-change media with 50/150 ns read/write latency, an internal
 * ("on-PM") buffer of 256 B lines that coalesces incoming writes, and
 * bit-level write reduction via data-comparison-write (DCW) — only
 * words whose value actually changes are written to the media. The
 * media word-write counter is the metric behind Fig. 11 and Fig. 14b.
 *
 * The media and the buffer are the device's part of the persistent
 * domain (sim/persistent_domain.hh): the device uses them in place, and
 * the buffer is inside the ADR domain, so its contents survive a crash.
 * The crash's ADR drain is a function of that state (crashWrite(),
 * drainBuffer()); it adds to the device's statistics when handed them
 * and has no timing.
 */

#ifndef SILO_NVM_PM_DEVICE_HH
#define SILO_NVM_PM_DEVICE_HH

#include <array>
#include <deque>
#include <functional>
#include <vector>

#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/persist_event_sink.hh"
#include "sim/persistent_domain.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"
#include "sim/word_store.hh"

namespace silo::nvm
{

/** One word of an incoming PM write: index within the 256 B line. */
struct WordWrite
{
    unsigned wordIdx;
    Word value;
};

/** The device's statistics; a crash's ADR drain adds to them too. */
struct PmStats
{
    stats::StatGroup group{"pm"};
    stats::Scalar wordWrites{"media_word_writes",
        "8B words written to the physical media (Fig. 11 metric)"};
    stats::Scalar lineWrites{"media_line_writes",
        "256B buffer lines written back to the media"};
    stats::Scalar dcwSuppressed{"dcw_suppressed_words",
        "words skipped by data-comparison-write"};
    stats::Scalar dataWordWrites{"data_word_writes",
        "media word writes to the data region"};
    stats::Scalar logWordWrites{"log_word_writes",
        "media word writes to the log region"};
    stats::Scalar reads{"media_reads", "media line reads"};
    stats::Scalar bufferHits{"buffer_read_hits",
        "reads served by the on-PM buffer"};
    stats::Scalar coalesced{"buffer_coalesced_writes",
        "writes merged into a resident buffer line"};
    stats::Distribution evictionWords{"eviction_changed_words",
        "words actually programmed per buffer-line eviction", 1, 33};

    PmStats();
};

/**
 * Crash (ADR drain): absorb one write into @p domain 's on-PM buffer,
 * as PmDevice::tryWrite() would at tick @p now, except that a full
 * buffer writes its lines to the media at once instead of waiting for
 * the banks. @p sink and @p stats (both nullable) see the media writes.
 */
void crashWrite(PersistentDomain &domain, Addr pm_line,
                const std::vector<WordWrite> &words, bool log_region,
                Tick now, log::PersistEventSink *sink, PmStats *stats);

/**
 * Write every buffered line of @p domain to its media and empty the
 * buffer, ignoring timing: the ADR flush at a crash, and the end of a
 * run (PmDevice::drainAll()).
 */
void drainBuffer(PersistentDomain &domain, log::PersistEventSink *sink,
                 PmStats *stats);

/** Banked PCM with an internal write-coalescing buffer. */
class PmDevice
{
  public:
    /** @p domain holds the media and the on-PM buffer. */
    PmDevice(EventQueue &eq, const SimConfig &cfg,
             PersistentDomain &domain);

    /**
     * Absorb a write into the on-PM buffer.
     *
     * @param pm_line 256 B-aligned base address.
     * @param words Dirty words within the line.
     * @param log_region True for log-region traffic (no DCW compare;
     *        log appends always change the media).
     * @return false when every buffer line is busy evicting — the
     *         caller must retry after registerSlotWaiter().
     */
    bool tryWrite(Addr pm_line, const std::vector<WordWrite> &words,
                  bool log_region);

    /** Call @p cb once, the next time a buffer slot frees up. */
    void registerSlotWaiter(std::function<void()> cb);

    /**
     * Issue a media read covering @p line_addr (64 B line).
     * @return absolute completion tick.
     */
    Tick read(Addr line_addr);

    /**
     * Flush the whole buffer to media, ignoring timing — models the
     * ADR drain on a crash and finalizes counters at the end of a run.
     */
    void drainAll();

    /**
     * The media image: the data-region words actually persisted. Log
     * words are counted but not stored; log::LogRegionStore keeps the
     * log's contents.
     */
    WordStore &media() { return _domain.media; }
    const WordStore &media() const { return _domain.media; }

    /** Register the persistency checker (nullptr when disabled). */
    void setCheckSink(log::PersistEventSink *sink) { _check = sink; }

    /** @name Statistics */
    /// @{
    std::uint64_t mediaWordWrites() const
    {
        return _stats.wordWrites.value();
    }
    std::uint64_t mediaLineWrites() const
    {
        return _stats.lineWrites.value();
    }
    std::uint64_t dcwSuppressedWords() const
    {
        return _stats.dcwSuppressed.value();
    }
    std::uint64_t dataRegionWordWrites() const
    {
        return _stats.dataWordWrites.value();
    }
    std::uint64_t logRegionWordWrites() const
    {
        return _stats.logWordWrites.value();
    }
    std::uint64_t mediaReads() const { return _stats.reads.value(); }
    std::uint64_t bufferReadHits() const
    {
        return _stats.bufferHits.value();
    }
    std::uint64_t bufferCoalescedWrites() const
    {
        return _stats.coalesced.value();
    }
    /** Banks still busy at the current tick (interval-sampler probe). */
    unsigned busyBanks() const;
    /** Valid on-PM buffer lines (interval-sampler probe). */
    unsigned bufferOccupancy() const;
    /// @}

    stats::StatGroup &statGroup() { return _stats.group; }
    const stats::StatGroup &statGroup() const { return _stats.group; }
    /** The counters a crash's ADR drain adds to. */
    PmStats &pmStats() { return _stats; }

  private:
    unsigned bankOf(Addr addr) const
    {
        return unsigned((addr / pmBufferLineBytes) % _banks.size());
    }

    /** Occupy @p bank for @p busy cycles; @return completion tick. */
    Tick occupyBank(unsigned bank, Cycles busy);

    /** Start evicting line @p idx; frees the slot at media-write end. */
    void startEviction(unsigned idx);

    void notifyOneWaiter();

    EventQueue &_eq;
    const SimConfig &_cfg;
    PersistentDomain &_domain;
    std::vector<Tick> _banks;
    std::deque<std::function<void()>> _slotWaiters;
    log::PersistEventSink *_check = nullptr;

    PmStats _stats;
    /** Device trace timeline; 0 when tracing is off. */
    trace::Tracer::TrackId _track = 0;
};

} // namespace silo::nvm

#endif // SILO_NVM_PM_DEVICE_HH
