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
 * The buffer is inside the ADR domain: its contents survive a crash
 * (drainAll() models the ADR flush).
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

/** Banked PCM with an internal write-coalescing buffer. */
class PmDevice
{
  public:
    PmDevice(EventQueue &eq, const SimConfig &cfg);

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
    WordStore &media() { return _media; }
    const WordStore &media() const { return _media; }

    /** Register the persistency checker (nullptr when disabled). */
    void setCheckSink(log::PersistEventSink *sink) { _check = sink; }

    /** @name Statistics */
    /// @{
    std::uint64_t mediaWordWrites() const
    {
        return _wordWrites.value();
    }
    std::uint64_t mediaLineWrites() const
    {
        return _lineWrites.value();
    }
    std::uint64_t dcwSuppressedWords() const
    {
        return _dcwSuppressed.value();
    }
    std::uint64_t dataRegionWordWrites() const
    {
        return _dataWordWrites.value();
    }
    std::uint64_t logRegionWordWrites() const
    {
        return _logWordWrites.value();
    }
    std::uint64_t mediaReads() const { return _reads.value(); }
    std::uint64_t bufferReadHits() const { return _bufferHits.value(); }
    std::uint64_t bufferCoalescedWrites() const
    {
        return _coalesced.value();
    }
    /** Banks still busy at the current tick (interval-sampler probe). */
    unsigned busyBanks() const;
    /** Valid on-PM buffer lines (interval-sampler probe). */
    unsigned bufferOccupancy() const;
    /// @}

    stats::StatGroup &statGroup() { return _stats; }
    const stats::StatGroup &statGroup() const { return _stats; }

  private:
    struct BufferLine
    {
        Addr base = 0;   //!< 256 B-aligned address
        /** Dirty words of the line: bit i of wordMask gates values[i]. */
        std::uint32_t wordMask = 0;
        std::array<Word, pmBufferLineBytes / wordBytes> values{};
        bool logRegion = false;
        Tick lastUse = 0;
        bool evicting = false;
        bool valid = false;

        void
        set(unsigned idx, Word value)
        {
            wordMask |= std::uint32_t(1) << idx;
            values[idx] = value;
        }
    };

    unsigned bankOf(Addr addr) const
    {
        return unsigned((addr / pmBufferLineBytes) % _banks.size());
    }

    /** Occupy @p bank for @p busy cycles; @return completion tick. */
    Tick occupyBank(unsigned bank, Cycles busy);

    /** Find the buffer line holding @p pm_line; -1 if absent. */
    int findLine(Addr pm_line) const;

    /** Start evicting @p line; frees the slot at media-write end. */
    void startEviction(unsigned idx);

    /** Apply one line's content to media and count DCW'd word writes. */
    unsigned applyToMedia(const BufferLine &line);

    void notifyOneWaiter();

    EventQueue &_eq;
    const SimConfig &_cfg;
    std::vector<BufferLine> _lines;
    std::vector<Tick> _banks;
    std::deque<std::function<void()>> _slotWaiters;
    WordStore _media;
    log::PersistEventSink *_check = nullptr;

    stats::StatGroup _stats{"pm"};
    stats::Scalar _wordWrites{"media_word_writes",
        "8B words written to the physical media (Fig. 11 metric)"};
    stats::Scalar _lineWrites{"media_line_writes",
        "256B buffer lines written back to the media"};
    stats::Scalar _dcwSuppressed{"dcw_suppressed_words",
        "words skipped by data-comparison-write"};
    stats::Scalar _dataWordWrites{"data_word_writes",
        "media word writes to the data region"};
    stats::Scalar _logWordWrites{"log_word_writes",
        "media word writes to the log region"};
    stats::Scalar _reads{"media_reads", "media line reads"};
    stats::Scalar _bufferHits{"buffer_read_hits",
        "reads served by the on-PM buffer"};
    stats::Scalar _coalesced{"buffer_coalesced_writes",
        "writes merged into a resident buffer line"};
    stats::Distribution _evictionWords{"eviction_changed_words",
        "words actually programmed per buffer-line eviction", 1, 33};
    /** Device trace timeline; 0 when tracing is off. */
    trace::Tracer::TrackId _track = 0;
};

} // namespace silo::nvm

#endif // SILO_NVM_PM_DEVICE_HH
