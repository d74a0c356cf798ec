/**
 * @file
 * SW-eADR: software write-ahead logging on an eADR machine (§II-C).
 *
 * eADR makes the whole cache hierarchy persistent, so persisting a log
 * entry only requires writing it into the cache — no clwb/sfence. The
 * paper argues this is still expensive: log entries are appended at
 * ever-new addresses, so they cannot merge, they occupy cache capacity,
 * and they evict application data ("cache pollution"). This scheme
 * implements that design as an ablation point: undo+redo entries are
 * written through the cache like ordinary data, commit is immediate,
 * and a crash flushes every dirty line by battery (the Table IV eADR
 * cost). The simulator keeps those caches in its volatile hierarchy,
 * so the scheme copies their dirty data lines into the persistent
 * domain at the crash (captureAtCrash()) and batteryFlush() writes
 * them to media.
 *
 * Not part of the paper's Fig. 11/12 comparison (those are ADR
 * platforms); exercised by the ablation bench.
 */

#ifndef SILO_LOG_SW_EADR_SCHEME_HH
#define SILO_LOG_SW_EADR_SCHEME_HH

#include "log/logging_scheme.hh"

namespace silo::log
{

/** Software undo+redo WAL with persistent (eADR) caches. */
class SwEadrScheme : public LoggingScheme
{
  public:
    explicit SwEadrScheme(SchemeContext ctx);

    const char *name() const override { return "SW-eADR"; }

    void store(unsigned core, Addr addr, Word old_val, Word new_val,
               Callback done) override;
    void txEnd(unsigned core, Callback done) override;
    void captureAtCrash(PersistentDomain &domain) const override;

    /**
     * eADR at a crash: the battery writes every dirty line of
     * @p caches back, data lines to @p media with their values.
     * @return the bytes flushed.
     */
    static std::uint64_t batteryFlush(EadrCaches &caches,
                                      WordStore &media);

    const stats::StatGroup *extraStatGroup() const override
    {
        return &_sweadrStats;
    }

  private:
    /**
     * Write @p record at a fresh log address *through the cache*:
     * durable immediately (persistent cache), but the log line
     * competes for cache capacity and later writes back to PM.
     */
    void writeLogThroughCache(unsigned core, const LogRecord &record,
                              Callback done);

    std::uint64_t _contentStamp = 1;
    stats::StatGroup _sweadrStats{"sweadr"};
    stats::Scalar _logCacheWrites{_sweadrStats, "sweadr_log_cache_writes"};
};

} // namespace silo::log

#endif // SILO_LOG_SW_EADR_SCHEME_HH
