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
 * timing and no producer left waiting.
 */

#ifndef SILO_MC_MEM_CONTROLLER_HH
#define SILO_MC_MEM_CONTROLLER_HH

#include <array>
#include <deque>
#include <functional>
#include <map>

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
 * Crash (ADR drain): @p mc 's non-held WPQ entries go through
 * @p domain 's on-PM buffer to its media (nvm::crashWrite() at tick
 * @p now) and the held (uncommitted LAD) entries are discarded, each
 * reported to @p sink. @p sink and @p pm_stats are nullable.
 */
void crashDrain(McState &mc, PersistentDomain &domain, Tick now,
                log::PersistEventSink *sink, nvm::PmStats *pm_stats);

/** Memory controller with an ADR write pending queue. */
class MemController
{
  public:
    /**
     * @param state Its WPQ and ADR log path, in the persistent domain.
     * @param name Stats/trace label; the multi-MC router passes
     *        "mc<i>" so per-controller statistics stay distinguishable.
     */
    MemController(EventQueue &eq, const SimConfig &cfg,
                  nvm::PmDevice &pm, McState &state,
                  log::LogRegionStore &logs, std::string name = "mc");

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

    unsigned freeWpqSlots() const
    {
        return _cfg.wpqEntries - unsigned(_st.wpq.size());
    }

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

    /** End of run: drain everything drainable, ignoring timing; held
     *  (revocable-uncommitted) entries are discarded like a crash. */
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

    /** Apply one entry straight to media (crash / final drain). */
    void applyEntry(const WpqEntry &entry);

    EventQueue &_eq;
    const SimConfig &_cfg;
    nvm::PmDevice &_pm;
    McState &_st;
    log::LogRegionStore &_logs;

    std::deque<std::function<void()>> _writeWaiters;
    std::function<void(Addr)> _evictionObserver;
    log::PersistEventSink *_check = nullptr;
    bool _drainScheduled = false;

    stats::StatGroup _stats;
    stats::Scalar _writes{"wpq_writes", "writes accepted into the WPQ"};
    stats::Scalar _bytes{"wpq_bytes", "bytes accepted into the WPQ"};
    stats::Scalar _coalesced{"wpq_coalesced",
        "writes merged into an existing WPQ entry"};
    stats::Scalar _forwards{"read_forwards",
        "reads served by WPQ forwarding"};
    stats::Scalar _reads{"reads", "reads issued to the PM device"};
    stats::Scalar _fullStalls{"wpq_full_stalls",
        "write attempts rejected because the WPQ was full"};
    stats::Distribution _occupancy{
        "wpq_occupancy", "WPQ entries occupied at each accept", 4, 32};
    /** This controller's trace timeline; 0 when tracing is off. */
    trace::Tracer::TrackId _track = 0;
};

} // namespace silo::mc

#endif // SILO_MC_MEM_CONTROLLER_HH
