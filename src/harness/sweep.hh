/**
 * @file
 * Parallel sweep engine for the bench matrices.
 *
 * Every figure in the paper is a sweep of independent (scheme ×
 * workload × cores × knob) cells; Sweep runs those cells on a
 * work-stealing thread pool while keeping the results bit-identical
 * to a serial run:
 *
 *  - traces are pre-generated once per unique TraceGenConfig before
 *    any cell fans out, so the TraceCache is read-only while workers
 *    run (generation itself is parallel over unique configs — each
 *    trace depends only on its own config and seed);
 *  - every cell owns its System, RNG streams and statistics, so cells
 *    never share mutable state;
 *  - results land in a pre-sized slot per cell and are returned in
 *    spec order regardless of completion order.
 *
 * `SILO_JOBS` selects the worker count (default: hardware
 * concurrency); `SILO_JOBS=1` recovers the historical serial path on
 * the calling thread. Wall-clock timing is captured per cell (wall,
 * queue wait, worker id) for the stderr progress/ETA line but
 * deliberately not serialized by default, so the printed tables and
 * the `writeJson()` output are byte-identical across job counts;
 * setting `SILO_PROF` opts a run into per-cell "perf" blocks and a
 * whole-process silo-prof-v1 host-time profile (harness/profiling.hh).
 */

#ifndef SILO_HARNESS_SWEEP_HH
#define SILO_HARNESS_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/system.hh"
#include "sim/config.hh"
#include "workload/trace_gen.hh"

namespace silo::harness
{

/** One independent (configuration, workload trace) point of a sweep. */
struct CellSpec
{
    SimConfig sim;
    workload::TraceGenConfig trace;
    /** Display name used by the progress line and the JSON output. */
    std::string label;
    /**
     * Optional replacement for the default to-completion runCell().
     * Custom experiments (crash injection, scheme introspection) build
     * their System here and may stash extra payload in a slot the
     * closure owns exclusively. Runs on a worker thread: it must not
     * touch state shared with other cells.
     */
    std::function<SimReport(const SimConfig &,
                            const workload::WorkloadTraces &)> runner;
};

/** Outcome of one cell; Sweep::results() holds these in spec order. */
struct CellResult
{
    SimReport report;
    /**
     * Wall-clock seconds this cell took. Feeds the progress/ETA line
     * and, only when SILO_PROF is set, the per-cell "perf" block in
     * writeJson() — by default it is never serialized, so sweep
     * outputs stay byte-identical across job counts.
     */
    double wallSeconds = 0;
    /**
     * Seconds between the sweep fan-out starting and this cell being
     * picked up by a worker — queueing delay, not compute. Same
     * serialization rule as wallSeconds.
     */
    double queueWaitSeconds = 0;
    /** Worker that ran the cell (-1 on the serial path). */
    int workerId = -1;
    /**
     * The cached trace object the cell consumed. Cells sharing a
     * TraceGenConfig see the same object (pointer-equal); tests check
     * this identity.
     */
    const workload::WorkloadTraces *traces = nullptr;
};

/** Work-stealing parallel executor for sweeps of independent cells. */
class Sweep
{
  public:
    struct Options
    {
        /** Worker threads; 0 = $SILO_JOBS, else hardware concurrency. */
        unsigned jobs = 0;
        /** Emit a progress/ETA line on stderr as cells finish. */
        bool progress = true;
    };

    /** Hooks for the determinism/ordering tests. */
    struct TestHooks
    {
        /** Called on the worker thread as cell @p index starts. */
        std::function<void(std::size_t index)> onCellStart;
    };

    Sweep() = default;
    explicit Sweep(Options opts) : _opts(opts) {}

    /** Append one cell; returns its index (== its result position). */
    std::size_t
    add(CellSpec spec)
    {
        _specs.push_back(std::move(spec));
        return _specs.size() - 1;
    }

    std::size_t size() const { return _specs.size(); }

    /**
     * Pre-generate all unique traces, fan the cells out over the
     * worker pool, and collect results in spec order.
     */
    const std::vector<CellResult> &run();

    const std::vector<CellResult> &results() const { return _results; }
    const std::vector<CellSpec> &specs() const { return _specs; }

    /** The trace cache: populated by run(), read-only afterwards. */
    TraceCache &traceCache() { return _cache; }

    /** Worker threads the next run() will use. */
    unsigned jobs() const;

    /**
     * Write specs + results as JSON ("silo-sweep-v1" schema: label,
     * scheme, workload, trace knobs and every SimReport field per
     * cell). Only deterministic fields are emitted — no timing — so
     * serial and parallel runs produce byte-identical files. The one
     * exception is opt-in: when SILO_PROF is set, each cell gains a
     * "perf" block (wall seconds, queue wait, worker id) for host-
     * performance analysis; with it unset the file is byte-identical
     * to the committed goldens. Parent directories are created as
     * needed.
     */
    void writeJson(const std::string &path,
                   const std::string &benchmark) const;

    void setTestHooks(TestHooks hooks) { _hooks = std::move(hooks); }

    /** Resolve the job count: $SILO_JOBS, else hardware concurrency. */
    static unsigned defaultJobs();

    /**
     * Run @p body(i) for i in [0, n) on @p jobs work-stealing workers;
     * jobs <= 1 runs them in order on the calling thread. The first
     * exception a body throws is rethrown once every worker joined.
     * Bodies must write only state owned by their index.
     */
    static void parallelFor(std::size_t n, unsigned jobs,
                            const std::function<void(std::size_t)> &body);

  private:
    void runOne(std::size_t index);
    void noteCellDone(std::size_t index, double wall_seconds);

    Options _opts;
    TestHooks _hooks;
    TraceCache _cache;
    std::vector<CellSpec> _specs;
    std::vector<CellResult> _results;
    /** @name Progress state (valid during run()) */
    /// @{
    std::size_t _done = 0;
    double _startSeconds = 0;
    /** Workers the running fan-out was launched with. */
    unsigned _runJobs = 1;
    /**
     * Per-worker busy time in integer nanoseconds (uint64 so no
     * float accumulation order can creep into anything; the progress
     * line is the only consumer). Guarded by the progress mutex.
     */
    std::vector<std::uint64_t> _workerBusyNanos;
    /// @}
};

/** Results path for @p benchmark: $SILO_JSON, else results/<name>.json. */
std::string jsonOutputPath(const std::string &benchmark);

/**
 * Trace file path for one cell: @p base with
 * "-<scheme>-<workload>-<cores>c" inserted before the extension, so a
 * whole-sweep SILO_TRACE produces one distinguishable file per cell.
 */
std::string tracePathFor(const std::string &base, const CellSpec &spec);

} // namespace silo::harness

#endif // SILO_HARNESS_SWEEP_HH
