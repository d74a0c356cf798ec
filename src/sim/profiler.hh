/**
 * @file
 * Exact host-time attribution for the simulator's own cost.
 *
 * PR 3's tracer observes *simulated* time; this layer measures where
 * the simulator spends *host* time, so the "raw speed inside a cell"
 * work (ROADMAP) knows whether a big cell burns its wall clock in
 * event dispatch, WPQ drains, log-persist bookkeeping, or stats
 * export. It is exact, not sampling: every event dispatched by the
 * EventQueue is timed under the static domain tag it was scheduled
 * with (core / mc / nvm / log-scheme / checker / stats), and the
 * non-event phases of a run (trace-compile / simulate / stats-export
 * / json-emit) are bracketed by the same scope mechanism, nesting
 * hierarchically: a scope's *self* time excludes its children, its
 * *total* time includes them.
 *
 * Threading model: each thread that wants attribution registers one
 * ThreadProfile slab with the process Profiler (sweep workers do this
 * lazily on first scope). Slabs are written only by their owning
 * thread — the hot path is two monotonic-clock reads and a handful of
 * uint64 adds, no locks, no allocation after the stack warms up — and
 * merged after the threads quiesce. The merge is a commutative uint64
 * sum per tag, so the merged profile is deterministic regardless of
 * worker scheduling; only the *host times inside* the slabs vary run
 * to run, never the dispatch counts (the event stream itself is
 * deterministic).
 *
 * Off path (no profiler installed / attached) the cost is one branch
 * on a null pointer per event — measured in the noise on the Fig. 12
 * matrix. Host times never flow into SimReport or the results JSON
 * goldens; the optional per-cell "perf" block the sweep engine can
 * emit is gated behind SILO_PROF precisely so default outputs stay
 * byte-identical.
 */

#ifndef SILO_SIM_PROFILER_HH
#define SILO_SIM_PROFILER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace silo::prof
{

/**
 * Static attribution tag carried by every scope. The first numDomains
 * values are *event domains* — a scheduled event is stamped with the
 * domain of the component scheduling it and timed under that tag at
 * dispatch. Queue is the event loop's own domain: EventQueue::run()
 * and runUntil() open one Queue scope around their loop, so its self
 * time is the loop's work between dispatches (finding, unlinking and
 * moving out the next event), counted once per loop. The rest are
 * *host phases* bracketing the non-event parts of a run. Checker and
 * Stats currently have no event sources (the checker shadows the
 * persist path inline; the sampler rides the queue's advance hook),
 * so their dispatch counts are zero in today's tree — they exist so
 * those components can schedule work without a schema change, and
 * the completeness test pins the expectation.
 */
enum class Tag : std::uint8_t
{
    Core,           //!< replay cores: trace issue, commit waits
    Mc,             //!< memory controllers: WPQ drains, router hops
    Nvm,            //!< PM device: bank programming, buffer sweeps
    LogScheme,      //!< logging schemes: persists, walkers, drains
    Checker,        //!< persistency checker (no event sources today)
    Stats,          //!< stats machinery (no event sources today)
    Queue,          //!< the event loop between dispatches
    Other,          //!< untagged events; the completeness test pins 0
    TraceCompile,   //!< phase: workload trace generation
    Simulate,       //!< phase: one cell's run/settle/drain
    StatsExport,    //!< phase: stats registry -> silo-stats-v1 JSON
    JsonEmit,       //!< phase: sweep results/*.json serialization
};

constexpr std::size_t numDomains = 8;
constexpr std::size_t numTags = 12;

/** Stable snake_case name used in silo-prof-v1 JSON and tests. */
const char *tagName(Tag t);

/** True for event-domain tags, false for host-phase tags. */
constexpr bool
isDomain(Tag t)
{
    return std::size_t(t) < numDomains;
}

/** Monotonic host clock in integer nanoseconds. */
inline std::uint64_t
nowNanos()
{
    // silo-lint: allow(ambient-entropy) host-time profiling is the one consumer of wall time besides harness::wallSeconds; values never reach SimReport or goldens
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now().time_since_epoch()).count());
}

/** Accumulated cost of one tag inside one thread's slab. */
struct TagCounters
{
    std::uint64_t selfNanos = 0;    //!< elapsed minus child scopes
    std::uint64_t totalNanos = 0;   //!< elapsed including children
    std::uint64_t count = 0;        //!< dispatches / scope entries
};

/**
 * One thread's attribution slab plus its scope stack. Written only by
 * the owning thread; read by Profiler::merged() after the thread
 * quiesces (the sweep engine joins its workers before merging).
 */
class ThreadProfile
{
  public:
    /** Open a scope tagged @p t. Hot path: one clock read, one push. */
    void
    enter(Tag t)
    {
        _stack.push_back(Frame{t, nowNanos(), 0});
    }

    /** Close the innermost scope, folding its cost into the slab. */
    void
    exit()
    {
        Frame f = _stack.back();
        _stack.pop_back();
        std::uint64_t elapsed = nowNanos() - f.startNanos;
        TagCounters &c = _tags[std::size_t(f.tag)];
        c.selfNanos +=
            elapsed > f.childNanos ? elapsed - f.childNanos : 0;
        c.totalNanos += elapsed;
        ++c.count;
        if (!_stack.empty())
            _stack.back().childNanos += elapsed;
    }

    /** Open-scope depth (0 when balanced; tests assert this). */
    std::size_t depth() const { return _stack.size(); }

    const std::array<TagCounters, numTags> &
    counters() const
    {
        return _tags;
    }

  private:
    struct Frame
    {
        Tag tag;
        std::uint64_t startNanos;
        /** Total nanoseconds of directly nested scopes. */
        std::uint64_t childNanos;
    };

    std::array<TagCounters, numTags> _tags{};
    std::vector<Frame> _stack;
};

/**
 * RAII scope: times the enclosed region under @p t when @p profile is
 * non-null, costs exactly one branch when it is null. This is the
 * construct the EventQueue wraps every dispatch in and the harness
 * wraps its phases in.
 */
class TimedScope
{
  public:
    TimedScope(ThreadProfile *profile, Tag t) : _profile(profile)
    {
        if (_profile)
            _profile->enter(t);
    }

    ~TimedScope()
    {
        if (_profile)
            _profile->exit();
    }

    TimedScope(const TimedScope &) = delete;
    TimedScope &operator=(const TimedScope &) = delete;

  private:
    ThreadProfile *_profile;
};

/**
 * Process-wide profile: owns one ThreadProfile per participating
 * thread and merges them deterministically. Registration is the only
 * locked operation; the slabs themselves are thread-private.
 *
 * Exactly one Profiler may be installed at a time (install()); the
 * harness installs one when SILO_PROF is set, tests install their own
 * around a sweep and uninstall afterwards.
 */
class Profiler
{
  public:
    /**
     * The calling thread's slab in this profiler, registering it on
     * first use. Stable address for the profiler's lifetime.
     */
    ThreadProfile *threadProfile();

    /** Slabs registered so far (threads that ever profiled). */
    std::size_t threadCount() const;

    /**
     * Merge every slab: per-tag commutative uint64 sums, so the
     * result is independent of thread registration and scheduling
     * order. Call only while no registered thread is inside a scope.
     */
    std::array<TagCounters, numTags> merged() const;

    /**
     * Write the merged profile as silo-prof-v1 JSON. @p wall_seconds
     * is the caller-measured wall time the profile covers; the file
     * records it plus a coverage ratio (sum of self times over wall —
     * above 1 when multiple workers profiled in parallel). Parent
     * directories are created as needed.
     */
    void writeJson(const std::string &path, double wall_seconds) const;

    /** The installed process profiler, or nullptr. */
    static Profiler *current();

    /**
     * Install @p p as the process profiler (nullptr uninstalls).
     * Install before spawning the threads that should profile;
     * threads cache their slab per installed profiler.
     */
    static void install(Profiler *p);

  private:
    mutable std::mutex _m;
    /** Deque: registration never moves earlier slabs. */
    std::deque<ThreadProfile> _profiles;
    /**
     * Slab per registering thread, so repeated threadProfile() calls
     * from one thread are idempotent. A recycled thread id may adopt
     * a dead thread's slab — harmless, since only one live thread can
     * hold an id and the merge sums slabs regardless.
     */
    std::map<std::thread::id, ThreadProfile *> _byThread;
};

/**
 * The calling thread's slab in the installed profiler, or nullptr
 * when none is installed. This is the single lookup every
 * instrumentation site goes through; it caches per (thread,
 * profiler), so repeated calls are two loads and a compare.
 */
ThreadProfile *currentThreadProfile();

} // namespace silo::prof

#endif // SILO_SIM_PROFILER_HH
