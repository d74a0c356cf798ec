/**
 * @file
 * FWB ("steal but no force"): hardware undo+redo logging with a
 * periodic cache force-write-back walker (§II-D, §VI-A).
 *
 * Every store persists an undo+redo entry and the store retires only
 * once its log is accepted by the ADR domain — FWB "forces the logs to
 * PM before the updated data for each write". Data reaches PM by
 * natural eviction plus a walker that force-writes-back all dirty
 * cachelines every 3,000,000 cycles, bounding log lifetime.
 */

#ifndef SILO_LOG_FWB_SCHEME_HH
#define SILO_LOG_FWB_SCHEME_HH

#include <deque>
#include <memory>
#include <vector>

#include "log/logging_scheme.hh"

namespace silo::log
{

/** Undo+redo logging with force write-back. */
class FwbScheme : public LoggingScheme
{
  public:
    explicit FwbScheme(SchemeContext ctx);

    const char *name() const override { return "FWB"; }

    void store(unsigned core, Addr addr, Word old_val, Word new_val,
               std::function<void()> done) override;
    void txEnd(unsigned core, std::function<void()> done) override;

    std::uint64_t walkerWritebacks() const
    {
        return _walkerWritebacks.value();
    }

    const stats::StatGroup *extraStatGroup() const override
    {
        return &_fwbStats;
    }

  private:
    /** Posted-but-unaccepted log writes a core may have in flight. */
    static constexpr unsigned maxPostedLogs = 16;

    struct CoreState
    {
        unsigned postedLogs = 0;
        /** Stores stalled on the posted-log queue being full. */
        std::deque<std::function<void()>> stalledStores;
        /** Commit waiting for postedLogs == 0. */
        std::function<void()> pendingCommit;
    };

    void logAccepted(unsigned core);
    void finishCommit(unsigned core);

    void scheduleWalk();
    /** Write back @p lines from index @p next on, one line at a time. */
    void walk(std::shared_ptr<const std::vector<Addr>> lines,
              std::size_t next);

    std::vector<CoreState> _cores;
    stats::StatGroup _fwbStats{"fwb"};
    /** Dirty lines written back by the FWB walker. */
    stats::Scalar _walkerWritebacks{_fwbStats, "fwb_writebacks"};
};

} // namespace silo::log

#endif // SILO_LOG_FWB_SCHEME_HH
