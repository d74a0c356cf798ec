/**
 * @file
 * The persistent-memory DIMM model.
 *
 * Implements the paper's PM substrate (§III-E, Table II): banked
 * phase-change media with 50 ns reads and a per-word write cost, an
 * internal ("on-PM") buffer of 256 B lines that coalesces incoming
 * writes, and bit-level write reduction via data-comparison-write
 * (DCW) — only words whose value actually changes are written to the
 * media. The media word-write counter is the metric behind Fig. 11 and
 * Fig. 14b.
 *
 * The media and the buffer are the device's part of the persistent
 * domain (sim/persistent_domain.hh): the device uses them in place, and
 * the buffer is inside the ADR domain, so its contents survive a crash.
 * The ADR drain, at a crash and at a clean shutdown
 * (mc::crashDrain()), is a function of that state (crashWrite(),
 * drainBuffer()); it adds to the device's statistics when handed them
 * and has no timing.
 */

#ifndef SILO_NVM_PM_DEVICE_HH
#define SILO_NVM_PM_DEVICE_HH

#include <array>
#include <vector>

#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/persistent_domain.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"
#include "sim/word_store.hh"

namespace silo::nvm
{

/** Latency of a media read (Table II: 50 ns). */
constexpr Cycles pmReadCycles = cyclesFromNs(50.0);

/**
 * Bank occupancy of one read. PCM reads are non-destructive sensing
 * and pipeline behind one another, while writes hold the bank for the
 * full programming pulse; a read therefore blocks its bank for less
 * than its own latency.
 */
constexpr Cycles pmReadOccupancyCycles = 8;

/**
 * Media write cost model: a buffer-line write-back occupies its bank
 * for pmWriteBaseCycles plus pmWritePerWordCycles per word that
 * actually programs (after DCW). The per-word term models the PCM
 * write-driver power budget, which limits how many bits one bank
 * programs in parallel; it is what couples media write traffic to
 * throughput (Figs. 11 vs 12).
 */
constexpr Cycles pmWriteBaseCycles = 20;
constexpr Cycles pmWritePerWordCycles = 360;

/** The device's statistics; a crash's ADR drain adds to them too. */
struct PmStats
{
    stats::StatGroup group{"pm"};
    /** 8 B words written to the media (Fig. 11 metric). */
    stats::Scalar wordWrites{group, "media_word_writes"};
    /** 256 B buffer lines written back to the media. */
    stats::Scalar lineWrites{group, "media_line_writes"};
    /** Words skipped by data-comparison-write. */
    stats::Scalar dcwSuppressed{group, "dcw_suppressed_words"};
    stats::Scalar dataWordWrites{group, "data_word_writes"};
    stats::Scalar logWordWrites{group, "log_word_writes"};
    stats::Scalar reads{group, "media_reads"};
    stats::Scalar bufferHits{group, "buffer_read_hits"};
    stats::Scalar coalesced{group, "buffer_coalesced_writes"};
    /** Words actually programmed per buffer-line eviction. */
    stats::Distribution evictionWords{group, "eviction_changed_words", 1, 33};
};

/**
 * Crash (ADR drain): absorb one write into @p domain 's on-PM buffer,
 * as PmDevice::tryWrite() would at tick @p now, except that a full
 * buffer writes its lines to the media at once instead of waiting for
 * the banks. @p stats (nullable) counts the media writes.
 */
void crashWrite(PersistentDomain &domain, Addr pm_line,
                std::uint32_t word_mask, const LineValues &values,
                bool log_region, Tick now, PmStats *stats);

/**
 * Write every buffered line of @p domain to its media and empty the
 * buffer, ignoring timing: the last step of the ADR drain.
 */
void drainBuffer(PersistentDomain &domain, PmStats *stats);

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
     * @param word_mask The dirty words within the line: bit i gates
     *        @p values [i].
     * @param log_region True for log-region traffic (no DCW compare;
     *        log appends always change the media).
     * @return false when every buffer line is busy evicting — the
     *         caller must retry after registerSlotWaiter().
     */
    bool tryWrite(Addr pm_line, std::uint32_t word_mask,
                  const LineValues &values, bool log_region);

    /** Call @p cb once, the next time a buffer slot frees up. */
    void registerSlotWaiter(Callback cb);

    /**
     * Issue a media read covering @p line_addr (64 B line).
     * @return absolute completion tick.
     */
    Tick read(Addr line_addr);

    /**
     * The media image: the data-region words actually persisted. Log
     * words are counted but not stored; log::LogRegionStore keeps the
     * log's contents.
     */
    WordStore &media() { return _domain.media; }
    const WordStore &media() const { return _domain.media; }

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
    PersistentDomain &_domain;
    std::vector<Tick> _banks;
    /** Writers waiting for a buffer slot, first come first served. */
    Ring<Callback> _slotWaiters;

    PmStats _stats;
};

} // namespace silo::nvm

#endif // SILO_NVM_PM_DEVICE_HH
