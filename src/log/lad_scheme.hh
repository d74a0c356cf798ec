/**
 * @file
 * LAD: logless atomic durability (§V, §VI-A).
 *
 * No logs in the common case. The memory controller (ADR domain)
 * buffers the updated cachelines of an open transaction as "held"
 * entries — durable but not drainable. Tx_end runs two phases: Phase 1
 * flushes every still-cached dirty line of the transaction to the MC
 * (this wait is LAD's ordering cost, worst for low-locality workloads
 * like Array and Queue, §VI-C); Phase 2 releases the held entries.
 * A crash discards held (uncommitted) lines, preserving atomicity.
 *
 * If held entries approach the MC's capacity, LAD falls back to a slow
 * mode: it reads the line's old data from PM and writes undo log
 * entries, after which the line may drain early (§V point 3).
 */

#ifndef SILO_LOG_LAD_SCHEME_HH
#define SILO_LOG_LAD_SCHEME_HH

#include <map>
#include <set>
#include <vector>

#include "log/logging_scheme.hh"

namespace silo::log
{

/**
 * Issue spacing of LAD's commit phase-1 flush, one dirty line per
 * interval: the L1 -> LLC -> MC serialization its two-phase commit
 * waits on (§V; EXPERIMENTS.md "Calibration").
 */
constexpr Cycles ladFlushPerLineCycles = 160;

/** Logless atomic durability via MC-buffered cachelines. */
class LadScheme : public LoggingScheme
{
  public:
    explicit LadScheme(SchemeContext ctx);

    const char *name() const override { return "LAD"; }

    void store(unsigned core, Addr addr, Word old_val, Word new_val,
               std::function<void()> done) override;
    void txEnd(unsigned core, std::function<void()> done) override;

    /** An open transaction's lines are revocable only by discard. */
    bool dropAtShutdown(Addr line) const override
    {
        return lineIsUncommitted(line);
    }

    std::uint64_t overflowFallbacks() const
    {
        return _fallbacks.value();
    }

    const stats::StatGroup *extraStatGroup() const override
    {
        return &_ladStats;
    }

  protected:
    void beginTx(unsigned core) override;

  private:
    struct CoreState
    {
        bool open = false;
        /** Dirty lines of the open transaction. */
        std::set<Addr> txLines;
        /** First-store old value per word (slow-mode undo data). */
        std::map<Addr, Word> undoImage;
        /** Lines whose undo is already persisted (slow mode). */
        std::set<Addr> undoLogged;
        /**
         * Lines mid-relieve: marked undoLogged but their undo records
         * not yet handed to the MC (the slow-mode PM read is still in
         * flight). Evictions of these lines must stay held — draining
         * them would put uncommitted data on media with no durable
         * undo coverage.
         */
        std::set<Addr> relieving;
    };

    /** @return core owning @p line, or -1 if outside any data arena. */
    int ownerOf(Addr line) const;

    /** True while @p line belongs to an open transaction. */
    bool lineIsUncommitted(Addr line) const;

    /**
     * Slow mode: persist undo records for the oldest held lines and
     * release them, relieving MC pressure.
     */
    void maybeRelieve();
    void relieveLine(unsigned core, Addr line);

    /** Phase 1 of commit: flush remaining dirty tx lines to the MC. */
    void commitPhase1(unsigned core, std::vector<Addr> lines,
                      std::size_t next, std::function<void()> done);
    /** Phase 2: release held entries; the transaction is committed. */
    void commitPhase2(unsigned core, std::function<void()> done);

    std::vector<CoreState> _cores;
    stats::StatGroup _ladStats{"lad"};
    /** Lines pushed to slow mode (PM read + undo log). */
    stats::Scalar _fallbacks{_ladStats, "lad_fallbacks"};
    stats::Scalar _phase1Lines{_ladStats, "lad_phase1_lines"};
};

} // namespace silo::log

#endif // SILO_LOG_LAD_SCHEME_HH
