/**
 * @file
 * Base: the hardware logging baseline of §VI-A — for every store it
 * persists an undo+redo log entry and then force-flushes the updated
 * cacheline, and Tx_end waits for all of both. Highest write traffic
 * and the strictest ordering of the evaluated designs.
 */

#ifndef SILO_LOG_BASE_SCHEME_HH
#define SILO_LOG_BASE_SCHEME_HH

#include <deque>
#include <vector>

#include "log/logging_scheme.hh"

namespace silo::log
{

/** Per-store log + cacheline flush baseline. */
class BaseScheme : public LoggingScheme
{
  public:
    explicit BaseScheme(SchemeContext ctx);

    const char *name() const override { return "Base"; }

    void store(unsigned core, Addr addr, Word old_val, Word new_val,
               std::function<void()> done) override;
    void txEnd(unsigned core, std::function<void()> done) override;

  private:
    /** Cap on in-flight log+flush pairs before stores stall. */
    static constexpr unsigned maxOutstanding = 8;

    struct CoreState
    {
        unsigned outstanding = 0;
        /** Stores waiting because outstanding hit the cap. */
        std::deque<std::function<void()>> stalledStores;
        /** Commit completion waiting for outstanding == 0. */
        std::function<void()> pendingCommit;
    };

    void opFinished(unsigned core);
    void finishCommit(unsigned core);

    std::vector<CoreState> _cores;
};

} // namespace silo::log

#endif // SILO_LOG_BASE_SCHEME_HH
