/**
 * @file
 * MorLog: morphable hardware logging (§II-D, §VI-A).
 *
 * Stores send undo+redo entries to a persistent (ADR-domain) per-core
 * log buffer in the memory controller, where entries for the same word
 * merge — eliminating the intermediate redo data that FWB writes out.
 * Tx_end must flush every buffered entry of the transaction to the PM
 * log region before it completes (MorLog's commit ordering constraint);
 * data reaches PM by natural eviction ("steal"). Logs are still
 * backups: they are always written to the log region per transaction.
 * The buffers are in the persistent domain (PersistentDomain::morlog),
 * and the crash flushes them with batteryFlush().
 */

#ifndef SILO_LOG_MORLOG_SCHEME_HH
#define SILO_LOG_MORLOG_SCHEME_HH

#include <deque>
#include <vector>

#include "log/logging_scheme.hh"

namespace silo::log
{

/** Merge-buffered undo+redo logging, flushed at commit. */
class MorLogScheme : public LoggingScheme
{
  public:
    explicit MorLogScheme(SchemeContext ctx);

    const char *name() const override { return "MorLog"; }

    void store(unsigned core, Addr addr, Word old_val, Word new_val,
               std::function<void()> done) override;
    void txEnd(unsigned core, std::function<void()> done) override;

    /**
     * The crash's ADR flush: every entry of the per-core merge buffers
     * @p buffers goes to its thread's log in @p logs, and the buffers
     * empty. @return the bytes flushed.
     */
    static std::uint64_t
    batteryFlush(std::vector<std::deque<MorLogEntry>> &buffers,
                 LogRegionStore &logs);

    std::uint64_t mergedLogs() const { return _merged.value(); }

    const stats::StatGroup *extraStatGroup() const override
    {
        return &_morlogStats;
    }

  private:
    /** Capacity of the per-core merge buffer (entries). */
    static constexpr unsigned bufferCapacity = 64;

    struct CoreState
    {
        unsigned commitOutstanding = 0;
        std::function<void()> pendingCommit;
    };

    /** The undo+redo log record of @p core 's buffer @p entry. */
    static LogRecord record(unsigned core, const MorLogEntry &entry);
    /** @p core 's ADR-domain merge buffer. */
    std::deque<MorLogEntry> &buffer(unsigned core)
    {
        return _ctx.domain.morlog[core];
    }
    /** Remove a flushed entry from the ADR buffer (post-accept). */
    void eraseEntry(unsigned core, const MorLogEntry &entry);
    void commitFlushFinished(unsigned core);

    std::vector<CoreState> _cores;
    stats::StatGroup _morlogStats{"morlog"};
    /** Log entries merged in the MC buffer. */
    stats::Scalar _merged{_morlogStats, "morlog_merged"};
};

} // namespace silo::log

#endif // SILO_LOG_MORLOG_SCHEME_HH
