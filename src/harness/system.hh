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
 *
 * What survives the crash is one value, the PersistentDomain
 * (sim/persistent_domain.hh), which the System owns and its components
 * use in place. A crash plus recovery is a function of a domain and
 * the checker observing it (crashDomain(), recoverDomain()): crash()
 * and recover() apply it to the System's own domain, with no copy, and
 * crashCopy() applies it to a copy, leaving the System running. So
 * sweepCrashes() crashes a copy after each event of one forward run and
 * then finishes that run as the completion case: a sweep over every
 * crash point simulates each event once.
 */

#ifndef SILO_HARNESS_SYSTEM_HH
#define SILO_HARNESS_SYSTEM_HH

#include <functional>
#include <memory>
#include <optional>
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
#include "sim/persistent_domain.hh"
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

/**
 * A crashed and recovered copy of a running System's persistent domain
 * and of the checker observing it (System::crashCopy()). Nothing in it
 * points into the System. One copy can be refilled again and again,
 * reusing its storage.
 */
struct DomainCopy
{
    /** The recovered image and the durable logs it was recovered from. */
    PersistentDomain domain;
    /**
     * Observing domain and its log region's sink, holding the crash's
     * violations; empty when the checker is off.
     */
    std::optional<check::PersistencyChecker> checker;
    /** Durable log records right after the crash. */
    std::size_t liveRecordsAtCrash = 0;
};

/** A complete simulated machine executing a traced workload. */
class System
{
  public:
    /** @p traces is borrowed: it must outlive the System. */
    System(const SimConfig &cfg, const workload::WorkloadTraces &traces);
    System(const SimConfig &, workload::WorkloadTraces &&) = delete;
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

    /** Recover the PM image from the durable logs (walRecover()). */
    void recover();

    /**
     * What crash() and recover() would give now, on a copy: copy the
     * persistent domain as a crash now would find it (SW-eADR's caches
     * captured) and the checker, with its clock stopped, into @p out,
     * then crash and recover the copy (crashDomain(), recoverDomain()).
     * The System itself is left untouched and can run on.
     */
    void crashCopy(DomainCopy &out) const;

    /**
     * After the cores retire, let background machinery finish (e.g.,
     * Silo's post-commit in-place updates): runs pending events for a
     * bounded grace period.
     */
    void settle(Cycles grace = 100000);

    /** Flush caches and queues (clean shutdown; finalizes counters). */
    void drainToMedia();

    /**
     * The completion case: run() to the stop point (a no-op once
     * there), settle(), drainToMedia().
     */
    void finish();

    SimReport report() const;

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
    log::LogRegionStore &logRegion() { return _domain.logs; }
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
    /** Borrowed: the replay cores read their threads for the whole run. */
    const workload::WorkloadTraces &_traces;
    /**
     * Exists only when _cfg.tracePath is set; attached to _eq before
     * any component is constructed so their ctors can register tracks.
     */
    std::unique_ptr<trace::Tracer> _tracer;
    EventQueue _eq;
    WordStore _values;
    /** Everything that survives a crash; components use it in place. */
    PersistentDomain _domain;
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

/**
 * The committed-prefix oracle of a crashed @p sys run on @p traces:
 * the initial image plus, per core in trace order, the stores of every
 * durably committed transaction — including one whose Tx_end had not
 * completed when its commit became durable
 * (LoggingScheme::lastTxCommittedAtCrash()). Recovery must reproduce
 * it on media for every word it holds.
 */
WordStore committedPrefixImage(System &sys,
                               const workload::WorkloadTraces &traces);

/**
 * The crash, as a function of @p domain and the checker @p checker
 * (nullable) observing it, which PersistencyChecker::onCrashBegin()
 * binds to @p domain: the MCs' ADR log paths persist, the battery
 * flushes each scheme's declared state, and the ADR drains the WPQs
 * and the on-PM buffer into the media at tick @p now. @p pm_stats
 * (nullable) receives the drain's media counts.
 * @return the bytes the battery flushed.
 */
std::uint64_t crashDomain(PersistentDomain &domain, const SimConfig &cfg,
                          check::PersistencyChecker *checker, Tick now,
                          nvm::PmStats *pm_stats);

/**
 * Recover @p domain 's media from its durable logs (walRecover()) and
 * let @p checker (nullable), bound to @p domain by crashDomain(),
 * validate the result.
 */
void recoverDomain(PersistentDomain &domain, const SimConfig &cfg,
                   check::PersistencyChecker *checker);

/**
 * Sweep crash points over one run of @p sys, which must not have run
 * yet. For each crash index k = 1, 1 + @p stride, ... up to the run's
 * stop point (the last core's requestStop()), run @p sys to its k-th
 * event and pass a crashed copy (System::crashCopy()) to @p fn (k,
 * copy); the copy is refilled for the next index, so one lives at a
 * time. Then finish @p sys as the completion case (System::finish())
 * and hand the stop-point copy to every remaining index up to the
 * completion's executed events E: a crash index past the stop point
 * crashes the stop-point state, so no settle-phase event is ever a
 * crash point. Each verdict is the one a fresh System gives after
 * runEvents(k), crash() and recover(). @p fn runs in increasing k,
 * with @p sys at event k up to the stop point and finished past it;
 * returning false ends the copies, not the run. No index above E
 * reaches @p fn.
 * @return E, the completion's executed events.
 */
std::uint64_t sweepCrashes(
    System &sys, std::uint64_t stride,
    const std::function<bool(std::uint64_t, const DomainCopy &)> &fn);

} // namespace silo::harness

#endif // SILO_HARNESS_SYSTEM_HH
