/**
 * @file
 * The full simulated system: cores + caches + memory controller + PM
 * device + logging scheme, wired from a SimConfig and a set of
 * workload traces. This is the library's main entry point.
 *
 * Typical use:
 * @code
 *   auto traces = workload::generateTraces(tg);
 *   harness::System sys(cfg, traces);
 *   sys.run();
 *   auto report = sys.report();
 * @endcode
 *
 * Crash experiments stop the run mid-flight (runEvents), call crash()
 * — battery flush, ADR drain, volatile-cache loss — then recover() and
 * inspect media().
 */

#ifndef SILO_HARNESS_SYSTEM_HH
#define SILO_HARNESS_SYSTEM_HH

#include <memory>
#include <vector>

#include "check/persistency_checker.hh"
#include "core/replay_core.hh"
#include "log/log_lifecycle.hh"
#include "log/logging_scheme.hh"
#include "mc/mc_router.hh"
#include "mem/hierarchy.hh"
#include "nvm/pm_device.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/sampler.hh"
#include "sim/tracer.hh"
#include "workload/trace.hh"

namespace silo::harness
{

/** Headline results of one run. */
struct SimReport
{
    std::uint64_t committedTransactions = 0;
    Tick ticks = 0;
    double txPerMillionCycles = 0;
    std::uint64_t mediaWordWrites = 0;
    std::uint64_t mediaLineWrites = 0;
    std::uint64_t dataRegionWordWrites = 0;
    std::uint64_t logRegionWordWrites = 0;
    std::uint64_t logRecordsWritten = 0;
    std::uint64_t commitStallCycles = 0;
    std::uint64_t storeStallCycles = 0;
    std::uint64_t wpqFullStalls = 0;
    std::uint64_t wpqAcceptedWrites = 0;
    std::uint64_t wpqAcceptedBytes = 0;
    /**
     * Hierarchical per-component statistics as a "silo-stats-v1" JSON
     * document (System::statsJson()); embedded per cell by the sweep
     * engine. Empty when the producer did not attach it.
     */
    std::string statsJson;
};

/** A complete simulated machine executing a traced workload. */
class System
{
  public:
    System(const SimConfig &cfg, const workload::WorkloadTraces &traces);
    ~System();

    /** Run every core's trace to completion. */
    void run();

    /**
     * Run at most @p max_events more events.
     * @return true while work remains.
     */
    bool runEvents(std::uint64_t max_events);

    /**
     * Crash now: battery-backed scheme flush, ADR drain of WPQ and
     * on-PM buffer, loss of all volatile cache state.
     */
    void crash();

    /** Recover the PM image using the scheme's recovery procedure. */
    void recover();

    /**
     * After the cores retire, let background machinery finish (e.g.,
     * Silo's post-commit in-place updates): runs pending events for a
     * bounded grace period.
     */
    void settle(Cycles grace = 100000);

    /** Flush caches and queues (clean shutdown; finalizes counters). */
    void drainToMedia();

    SimReport report() const;

    /** Dump every component's statistics (gem5-style stat lines). */
    void printStats(std::ostream &os);

    /**
     * Every component's statistics as one "silo-stats-v1" JSON
     * document (see stats::StatRegistry).
     */
    std::string statsJson() const;

    /**
     * Write the Chrome trace-event JSON to SimConfig::tracePath.
     * No-op when tracing is off or the trace was already written; the
     * destructor calls it as a fallback.
     */
    void writeTrace();

    /** The run's tracer, or nullptr when tracing is off. */
    trace::Tracer *tracer() { return _tracer.get(); }

    /** @name Component access (tests, benches, examples) */
    /// @{
    EventQueue &eventQueue() { return _eq; }
    nvm::PmDevice &pm() { return *_pm; }
    mc::McRouter &mc() { return *_mc; }
    mem::CacheHierarchy &hierarchy() { return *_hierarchy; }
    log::LoggingScheme &scheme() { return *_scheme; }
    log::LogRegionStore &logRegion() { return *_logs; }
    core::ReplayCore &coreAt(unsigned i) { return *_cores[i]; }
    unsigned numCores() const { return unsigned(_cores.size()); }
    /** Architectural (pre-crash) values — the running system's view. */
    WordStore &values() { return _values; }
    /** The persistency checker, or nullptr when cfg.checker is off. */
    check::PersistencyChecker *checker() { return _checker.get(); }
    /** The lifecycle engine, or nullptr when cfg.logSegmented is off. */
    log::LogLifecycle *lifecycle() { return _lifecycle.get(); }
    /// @}

    const SimConfig &config() const { return _cfg; }

  private:
    SimConfig _cfg;
    /**
     * Own a copy of the per-thread traces only: replay cores reference
     * into it for the whole run. The initial image is loaded straight
     * from the constructor argument, and the final image is never read.
     */
    std::vector<workload::ThreadTrace> _threads;
    /**
     * Exists only when _cfg.tracePath is set; attached to _eq before
     * any component is constructed so their ctors can register tracks.
     */
    std::unique_ptr<trace::Tracer> _tracer;
    EventQueue _eq;
    WordStore _values;
    std::unique_ptr<log::LogRegionStore> _logs;
    std::unique_ptr<nvm::PmDevice> _pm;
    std::unique_ptr<mc::McRouter> _mc;
    std::unique_ptr<mem::CacheHierarchy> _hierarchy;
    std::unique_ptr<check::PersistencyChecker> _checker;
    /** Segmented-log lifecycle engine; cfg.logSegmented only. */
    std::unique_ptr<log::LogLifecycle> _lifecycle;
    std::unique_ptr<log::LoggingScheme> _scheme;
    std::vector<std::unique_ptr<core::ReplayCore>> _cores;
    /** Interval sampler feeding counter tracks; tracing-on only. */
    std::unique_ptr<trace::IntervalSampler> _sampler;
    unsigned _finishedCores = 0;
    bool _started = false;
    bool _crashed = false;
    bool _traceWritten = false;
};

} // namespace silo::harness

#endif // SILO_HARNESS_SYSTEM_HH
