/**
 * @file
 * The memory controller: a 64-entry write pending queue (WPQ) inside
 * the ADR persistent domain, a read path with WPQ forwarding, and a
 * FIFO drain engine into the PM device (Table II).
 *
 * A write is durable the moment it is accepted into the WPQ (the ADR
 * persist point every scheme's commit rules are defined against).
 * Same-line writes coalesce inside the WPQ. When the queue is full,
 * producers wait in FIFO order — this back-pressure is what couples a
 * scheme's write traffic to its transaction throughput.
 *
 * The controller also owns the ADR log path (the log controller sits
 * in the MC, §III-D): every log record, a scheme's or the segmented
 * lifecycle's, enters it through writeLog() and is durable from then
 * on, whether the WPQ takes it at once or it waits for a slot; a
 * crash persists whatever still waits (flushLogPath()).
 *
 * LAD support: entries can be enqueued "held" — durable but not
 * drainable (LAD's in-MC buffering of uncommitted cachelines); commit
 * releases them and a crash discards them.
 *
 * The WPQ entries and the log path are the controller's part of the
 * persistent domain (mc::McState in sim/persistent_domain.hh), used in
 * place. A crash is a function of that state: flushLogPath() persists
 * the waiting records and crashDrain() is the ADR drain, with no
 * timing and no producer left waiting. A clean shutdown drains the
 * same way (drainAll()).
 */

#ifndef SILO_MC_MEM_CONTROLLER_HH
#define SILO_MC_MEM_CONTROLLER_HH

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "nvm/pm_device.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/log_region.hh"
#include "sim/persist_event_sink.hh"
#include "sim/persistent_domain.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"

namespace silo::mc
{

/**
 * Crash: every record waiting in @p mc 's ADR log path persists to
 * @p logs.
 */
void flushLogPath(McState &mc, log::LogRegionStore &logs);

/**
 * The ADR drain, at a crash and at a clean shutdown: @p mc 's non-held
 * WPQ entries go through @p domain 's on-PM buffer to its media
 * (nvm::crashWrite() at tick @p now), the held (uncommitted LAD)
 * entries are discarded, each reported to @p sink, and the buffer
 * drains. @p sink and @p pm_stats (the media counts) are nullable.
 */
void crashDrain(McState &mc, PersistentDomain &domain, Tick now,
                log::PersistEventSink *sink, nvm::PmStats *pm_stats);

/**
 * The value the ADR drain (crashDrain() on every controller) would
 * leave in @p domain 's media for the data word @p word: the newest
 * non-held WPQ entry holding it, else the non-evicting on-PM buffer
 * line holding it, else the media's, if the media ever held the word.
 * Held entries do not count, since the drain discards them.
 * @return nothing if no part of the ADR domain holds the word.
 */
std::optional<Word> adrValue(const PersistentDomain &domain, Addr word);

/** Memory controller with an ADR write pending queue. */
class MemController
{
  public:
    /**
     * @param domain The persistent domain: the controller uses
     *        domain.mcs[@p index] (its WPQ and ADR log path) and the
     *        log region in place.
     * @param name Stats/trace label; the multi-MC router passes
     *        "mc<i>" so per-controller statistics stay distinguishable.
     */
    MemController(EventQueue &eq, const SimConfig &cfg,
                  nvm::PmDevice &pm, PersistentDomain &domain,
                  unsigned index = 0, std::string name = "mc");

    /** @name Write producers */
    /// @{

    /**
     * Accept a full 64 B cacheline write; false when the WPQ is full.
     * @param line_addr 64 B-aligned address.
     * @param values The line's eight words.
     * @param evicted True on the cacheline-eviction path (CE) — fires
     *        the eviction observer used by Silo's flush-bit logic.
     * @param held True for LAD's buffered uncommitted lines.
     */
    bool tryWriteLine(Addr line_addr,
                      const std::array<Word, wordsPerLine> &values,
                      bool evicted, bool held = false);

    /** Accept an 8 B word update; false when the WPQ is full. */
    bool tryWriteWord(Addr word_addr, Word value);

    /** Write an 8 B word, waiting FIFO while the WPQ is full; @p done
     *  runs at acceptance (Silo's in-place updates, checkpoints). */
    void writeWord(Addr word_addr, Word value, std::function<void()> done);

    /**
     * Enter @p record at @p rec_addr into the ADR log path, durable
     * from now on; it waits there, retrying on each freed slot, while
     * the WPQ is full. @p done runs at acceptance.
     */
    void writeLog(Addr rec_addr, const log::LogRecord &record,
                  std::function<void()> done);
    /// @}

    /** FIFO wait for WPQ space; @p cb runs once when a slot frees (for
     *  writebacks, which re-read their line at each attempt). */
    void requestWriteSlot(std::function<void()> cb);

    /** @name LAD held-entry control */
    /// @{
    /** Make held entries for @p line_addr drainable (LAD commit). */
    void releaseHeld(Addr line_addr);
    /** Number of held entries currently buffered. */
    unsigned heldEntries() const { return _st.heldCount; }
    /// @}

    /**
     * Issue a read of the 64 B line at @p line_addr; @p done runs at
     * completion (forwarded from the WPQ or read from media).
     */
    void read(Addr line_addr, std::function<void()> done);

    /** Observer invoked when an evicted data line is accepted. */
    void
    setEvictionObserver(std::function<void(Addr)> observer)
    {
        _evictionObserver = std::move(observer);
    }

    /**
     * Register the persistency checker (nullptr when disabled). Accept,
     * held-release, and crash-discard events are reported to it before
     * any scheme observer runs.
     */
    void setCheckSink(log::PersistEventSink *sink) { _check = sink; }

    /**
     * Clean shutdown: crashDrain() on this controller's state at the
     * current tick. Held (revocable-uncommitted) entries are discarded
     * — applying them would put uncommitted data on media with nothing
     * to revoke it.
     */
    void drainAll();

    /** @name Statistics */
    /// @{
    std::uint64_t acceptedWrites() const { return _writes.value(); }
    std::uint64_t acceptedBytes() const { return _bytes.value(); }
    std::uint64_t coalescedWrites() const { return _coalesced.value(); }
    std::uint64_t readForwards() const { return _forwards.value(); }
    std::uint64_t fullStalls() const { return _fullStalls.value(); }
    /** Current WPQ occupancy in entries (interval-sampler probe). */
    unsigned wpqOccupancy() const { return unsigned(_st.wpq.size()); }
    /// @}

    stats::StatGroup &statGroup() { return _stats; }
    const stats::StatGroup &statGroup() const { return _stats; }

  private:
    /** Core accept path shared by the write entry points. */
    bool enqueue(WpqEntry &&entry);

    /** Accept a log record into the WPQ; false when it is full. */
    bool tryWriteLog(Addr rec_addr, const log::LogRecord &record);

    /** Wait for a slot, then retry the record parked at @p rec_addr. */
    void retryLog(Addr rec_addr, std::function<void()> done);

    /** Drain the oldest drainable entry; reschedules itself. */
    void drainOne();
    void scheduleDrain(Cycles delay = 0);
    void notifyWaiters(unsigned count);

    EventQueue &_eq;
    const SimConfig &_cfg;
    nvm::PmDevice &_pm;
    PersistentDomain &_domain;
    McState &_st;

    std::deque<std::function<void()>> _writeWaiters;
    std::function<void(Addr)> _evictionObserver;
    log::PersistEventSink *_check = nullptr;
    bool _drainScheduled = false;

    stats::StatGroup _stats;
    stats::Scalar _writes{_stats, "wpq_writes"};
    stats::Scalar _bytes{_stats, "wpq_bytes"};
    stats::Scalar _coalesced{_stats, "wpq_coalesced"};
    stats::Scalar _forwards{_stats, "read_forwards"};
    /** Reads issued to the PM device. */
    stats::Scalar _reads{_stats, "reads"};
    stats::Scalar _fullStalls{_stats, "wpq_full_stalls"};
    /** WPQ entries occupied at each accept. */
    stats::Distribution _occupancy{_stats, "wpq_occupancy", 4, 32};
    /** This controller's trace timeline; 0 when tracing is off. */
    trace::Tracer::TrackId _track = 0;
};

} // namespace silo::mc

#endif // SILO_MC_MEM_CONTROLLER_HH
