/**
 * @file
 * The replay core: an in-order core executing one thread's transaction
 * trace against the timing memory system.
 *
 * Loads and stores block (one outstanding access per core); every
 * operation pays a fixed issue overhead. The core keeps the system's
 * architectural value store up to date — because threads never share
 * lines, the store order per word equals trace order, so old-value
 * capture for the log generator is exact.
 *
 * The core is the only caller of the scheme's transaction hooks, so it
 * also reports each transaction boundary and store to the persistency
 * checker, and each commit to the segmented-log lifecycle engine.
 */

#ifndef SILO_CORE_REPLAY_CORE_HH
#define SILO_CORE_REPLAY_CORE_HH

#include <functional>

#include "log/logging_scheme.hh"
#include "mem/hierarchy.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/tracer.hh"
#include "sim/word_store.hh"
#include "workload/trace.hh"

namespace silo::core
{

/** One simulated core replaying one thread trace. */
class ReplayCore
{
  public:
    /**
     * @p checker and @p lifecycle are nullable: the persistency
     * checker (SimConfig::checker) and the segmented-log lifecycle
     * engine (SimConfig::logSegmented).
     */
    ReplayCore(unsigned id, EventQueue &eq,
               mem::CacheHierarchy &hierarchy,
               log::LoggingScheme &scheme,
               log::PersistEventSink *checker,
               log::LogLifecycle *lifecycle, WordStore &values,
               const workload::ThreadTrace &trace,
               std::function<void()> on_finished);

    /** Begin executing the trace. */
    void start();

    std::uint64_t committedTx() const { return _committedTx; }

    /** @return true if a transaction is open (crash bookkeeping). */
    bool inTransaction() const { return _inTx; }
    std::uint16_t currentTxid() const { return _txid; }

    /**
     * Trace index one past the Tx_end of the last *durably committed*
     * transaction — the crash oracle replays stores up to here.
     */
    std::size_t committedOpIndex() const { return _committedOpIndex; }

    /**
     * Trace index one past the Tx_end whose commit was requested (the
     * commit may be in flight at a crash).
     */
    std::size_t commitRequestedOpIndex() const
    {
        return _commitRequestedOpIndex;
    }

    std::uint64_t commitStallCycles() const
    {
        return _commitStalls.value();
    }
    std::uint64_t storeStallCycles() const
    {
        return _storeStalls.value();
    }

    /** Per-core statistics for the structured stats export. */
    const stats::StatGroup &statGroup() const { return _statGroup; }

  private:
    void step();
    void doLoad(const workload::TxOp &op);
    void doStore(const workload::TxOp &op);
    void doTxEnd();
    void advanceAfter(Cycles delay);

    unsigned _id;
    EventQueue &_eq;
    mem::CacheHierarchy &_hierarchy;
    log::LoggingScheme &_scheme;
    log::PersistEventSink *_checker;
    log::LogLifecycle *_lifecycle;
    WordStore &_values;
    const workload::ThreadTrace &_trace;
    std::function<void()> _onFinished;

    std::size_t _cursor = 0;
    std::uint16_t _txid = 0;
    bool _inTx = false;
    std::uint64_t _committedTx = 0;
    std::size_t _committedOpIndex = 0;
    std::size_t _commitRequestedOpIndex = 0;

    /** Start tick of the open transaction (tx/execute trace spans). */
    Tick _txStart = 0;

    stats::StatGroup _statGroup;
    /** Cycles at Tx_end. */
    stats::Scalar _commitStalls{_statGroup, "commit_stalls"};
    /** Cycles in store hooks. */
    stats::Scalar _storeStalls{_statGroup, "store_stalls"};
    /** Per-transaction Tx_end stall (cycles). */
    stats::Distribution _commitStallDist{_statGroup, "commit_stall", 64, 64};
    /** This core's trace timeline; 0 when tracing is off. */
    trace::Tracer::TrackId _track = 0;
};

} // namespace silo::core

#endif // SILO_CORE_REPLAY_CORE_HH
