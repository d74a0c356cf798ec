/**
 * @file
 * The benchmark's workloads and the context one pass of a workload
 * runs in. Every workload drives libsilo only through the entry points
 * the tools use (harness::Sweep / harness::System and
 * fuzz::runFuzzCampaign), from one thread, one op after another.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "counts.hh"
#include "measure.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/profiler.hh"

namespace perfbench
{

/** splitmix64: unrelated values from nearby seeds. */
inline std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Command-line inputs a workload sees. */
struct Options
{
    std::uint64_t seed = 1;
    double seconds = 10;
    /** Self-test knob: seeded checker bug for litmus_crash. */
    silo::MutationKind mutation = silo::MutationKind::None;
    /** Self-test knob: corrupt one media word of the first op. */
    bool flipWord = false;
};

/** Everything one pass (or one set-up) records. */
struct PassContext
{
    PassContext(const Options &o, Drift &d, SpanLog *s)
        : opts(o), drift(d), spans(s)
    {}

    const Options &opts;
    Drift &drift;
    /** Null outside the traced pass. */
    SpanLog *spans;

    SimCounts counts;
    Digest digest;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failing ops, described. */
    std::vector<std::string> failures;
    /** silo-prof self nanoseconds per domain inside run spans. */
    std::array<std::uint64_t, silo::prof::numDomains> domainNanos{};

    /** Sample the reference kernel between two ops. */
    void
    sampleKernel()
    {
        SpanScope span(spans, "bench.ref_kernel");
        drift.sample();
    }

    /** Count one op and record it as failed when @p why is non-empty. */
    void noteOp(const std::string &why);
};

/**
 * Span plus exact counters around a call that dispatches events
 * (System::run, runEvents, settle): allocations, events, and the
 * installed profiler's per-domain self time.
 */
class RunMeter
{
  public:
    RunMeter(PassContext &ctx, const silo::EventQueue &eq,
             const char *span_name);
    ~RunMeter();
    RunMeter(const RunMeter &) = delete;
    RunMeter &operator=(const RunMeter &) = delete;

  private:
    PassContext &_ctx;
    const silo::EventQueue &_eq;
    SpanScope _span;
    std::uint64_t _events;
    std::array<std::uint64_t, silo::prof::numDomains> _domain{};
    AllocDelta _allocs;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Set-up repetitions a run makes (setup_s is their median). */
    virtual unsigned setupReps() const = 0;
    /** Build the inputs every op consumes, from the seed. */
    virtual void setup(PassContext &ctx) = 0;
    /** Passes a run of @p seconds makes; every pass does equal work. */
    virtual unsigned passes(double seconds) const = 0;
    /** Run every op once. */
    virtual void pass(PassContext &ctx) = 0;
    /** Workload-specific results for the detail line. */
    virtual std::map<std::string, double> extras() const { return {}; }
    /**
     * Replay @p ctx's pass layer by layer, when the untimed pass is a
     * single library call; by default the traced pass is pass().
     */
    virtual void tracedPass(PassContext &ctx) { pass(ctx); }
    /**
     * Check a traced pass against the untimed one (same ops, same
     * simulated outputs); returns a description of any disagreement.
     */
    virtual std::string reconcile(const PassContext &untimed,
                                  const PassContext &traced) const;
};

std::unique_ptr<Workload> makeEvalMatrix(const Options &opts);
std::unique_ptr<Workload> makeLitmusCrash(const Options &opts);
std::unique_ptr<Workload> makeLongHorizon(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
