/**
 * @file
 * litmus_crash: the fuzz campaign developers run. Seeded litmus
 * programs crash at every event on all six schemes, then recover, with
 * the persistency checker on, no mutation and no segmentation, through
 * fuzz::runFuzzCampaign at one worker. The campaign is split into one
 * call per program, with seeds derived from the workload seed, so the
 * reference kernel is sampled between calls. An op is one crash case;
 * the campaign reports the first failing case of each (program,
 * scheme), so failed ops count those findings.
 *
 * The generator's default thread range (1-3) is stratified: calls cycle
 * through 1, 2 and 3 threads, so every seed runs the same mix of
 * program widths. Cases per second fall with program size (a bigger
 * program has more cases, each replaying more events), and an
 * unstratified mix moved cases/s by several percent from seed to seed.
 */

#include <cmath>
#include <optional>

#include "fuzz/campaign.hh"
#include "fuzz/fuzz_runner.hh"
#include "fuzz/litmus_gen.hh"
#include "harness/system.hh"
#include "sim/rng.hh"
#include "workload/litmus.hh"
#include "workload/trace_gen.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using silo::SchemeKind;
using silo::harness::System;

/** Nominal programs per reference second; sizes a run to --seconds. */
constexpr double kProgramsPerSecond = 10;

/** The label the campaign gives the one program of a call. */
std::string
programLabel(std::uint64_t call_seed)
{
    return "fuzz-" + std::to_string(call_seed) + "-0";
}

class LitmusCrash final : public Workload
{
  public:
    explicit LitmusCrash(const Options &opts) : _opts(opts)
    {
        std::uint64_t programs = std::uint64_t(
            std::max(1.0, std::ceil(opts.seconds * kProgramsPerSecond)));
        for (std::uint64_t c = 0; c < programs; ++c) {
            silo::fuzz::FuzzOptions fo;
            fo.seed = mixSeed(opts.seed * 1000003 + c);
            fo.maxPrograms = 1;
            fo.crashStride = 1;
            fo.mutation = opts.mutation;
            fo.gen.minThreads = fo.gen.maxThreads = unsigned(1 + c % 3);
            _calls.push_back(fo);
        }
    }

    unsigned setupReps() const override { return 9; }

    /** Generate and compile every program the campaign will run. */
    void
    setup(PassContext &ctx) override
    {
        ctx.sampleKernel();
        for (const silo::fuzz::FuzzOptions &fo : _calls) {
            SpanScope span(ctx.spans, "workload.tracegen");
            silo::Rng rng(fo.seed);
            silo::workload::LitmusProgram program = silo::fuzz::generateLitmus(
                rng, fo.gen, programLabel(fo.seed));
            std::string text = silo::workload::serializeLitmus(program);
            silo::workload::WorkloadTraces traces =
                silo::workload::litmusTraces(program);
            if (traces.threads.size() != program.threads.size())
                silo::fatal("litmus_crash: program " + program.name +
                            " compiled to the wrong thread count");
            ctx.digest.add(text);
        }
    }

    unsigned passes(double) const override { return 1; }

    void
    pass(PassContext &ctx) override
    {
        for (const silo::fuzz::FuzzOptions &fo : _calls) {
            silo::fuzz::FuzzCampaignResult r = silo::fuzz::runFuzzCampaign(fo);
            ctx.attempted += r.crashCases;
            ctx.failed += r.findings.size();
            for (const auto &f : r.findings) {
                if (ctx.failures.size() < 20)
                    ctx.failures.push_back(
                        f.programName + " on " + silo::schemeName(f.scheme) +
                        ": " + silo::check::violationName(f.kind) +
                        " at crash " + std::to_string(f.crashIndex));
            }
            ctx.counts.fuzzPrograms += r.programsRun;
            ctx.counts.fuzzCases += r.casesRun;
            ctx.counts.fuzzCrashCases += r.crashCases;
            ctx.digest.add(r.summaryJson(fo));
            ctx.sampleKernel();
        }
    }

    /**
     * runFuzzCampaign is one call, so the traced pass replays its
     * public sequence — generate, compile per sweep phase, then each
     * case as runLitmusCase runs it — to give every layer a span.
     */
    void
    tracedPass(PassContext &ctx) override
    {
        using namespace silo;
        for (const fuzz::FuzzOptions &fo : _calls) {
            workload::TraceGenConfig tg;
            tg.kind = workload::WorkloadKind::Litmus;
            {
                SpanScope span(ctx.spans, "fuzz.generate");
                Rng rng(fo.seed);
                workload::LitmusProgram program = fuzz::generateLitmus(
                    rng, fo.gen, programLabel(fo.seed));
                tg.numThreads = unsigned(program.threads.size());
                tg.options.litmus = workload::serializeLitmus(program);
            }
            ++ctx.counts.fuzzPrograms;
            // Phase A: completion run per scheme (its own sweep, so its
            // own compile of the program).
            std::vector<std::uint64_t> events;
            std::vector<bool> clean;
            {
                std::optional<workload::WorkloadTraces> traces;
                {
                    SpanScope span(ctx.spans, "workload.litmus_compile");
                    traces.emplace(workload::generateTraces(tg));
                }
                for (SchemeKind s : allSchemes) {
                    std::uint64_t violations = 0;
                    events.push_back(runCase(ctx, *traces, tg.numThreads, s,
                                             0, violations));
                    clean.push_back(violations == 0);
                }
            }
            // Phase B: crash at every event of every clean scheme.
            std::optional<workload::WorkloadTraces> traces;
            {
                SpanScope span(ctx.spans, "workload.litmus_compile");
                traces.emplace(workload::generateTraces(tg));
            }
            for (std::size_t s = 0; s < std::size(allSchemes); ++s) {
                if (!clean[s])
                    continue;
                for (std::uint64_t k = 1; k <= events[s]; ++k) {
                    std::uint64_t violations = 0;
                    runCase(ctx, *traces, tg.numThreads, allSchemes[s], k,
                            violations);
                    ++ctx.attempted;
                    ctx.failed += violations != 0;
                    ++ctx.counts.fuzzCrashCases;
                }
            }
            ctx.sampleKernel();
        }
    }

    std::string
    reconcile(const PassContext &untimed,
              const PassContext &traced) const override
    {
        const SimCounts &u = untimed.counts;
        const SimCounts &t = traced.counts;
        if (u.fuzzPrograms != t.fuzzPrograms ||
            u.fuzzCrashCases != t.fuzzCrashCases)
            return "traced replay ran " + std::to_string(t.fuzzCrashCases) +
                   " crash cases, the campaign " +
                   std::to_string(u.fuzzCrashCases);
        // Shrinking adds cases only after a finding.
        if (untimed.failed == 0 && u.fuzzCases != t.fuzzCases)
            return "traced replay ran a different number of cases";
        if ((untimed.failed == 0) != (traced.failed == 0))
            return "traced replay and campaign disagree on failures";
        return "";
    }

  private:
    /** One case, layer by layer; returns its executed events. */
    std::uint64_t
    runCase(PassContext &ctx, const silo::workload::WorkloadTraces &traces,
            unsigned threads, SchemeKind scheme, std::uint64_t crash_index,
            std::uint64_t &violations)
    {
        std::uint64_t events = 0;
        SpanScope op(ctx.spans, "op", ctx.spans->newOp());
        // Opened before the System's stack is claimed (see eval_matrix).
        SpanScope construct(ctx.spans, "harness.construct");
        AllocDelta allocs;
        std::optional<System> sys;
        sys.emplace(
            silo::fuzz::litmusSimConfig(threads, scheme, _opts.mutation),
            traces);
        ctx.counts.constructAllocs += allocs.count();
        ctx.counts.constructBytes += allocs.bytes();
        ++ctx.counts.systems;
        construct.close();
        if (crash_index == 0) {
            {
                RunMeter meter(ctx, sys->eventQueue(), "harness.run");
                sys->run();
            }
            RunMeter meter(ctx, sys->eventQueue(), "harness.drain");
            sys->settle();
            sys->drainToMedia();
        } else {
            {
                RunMeter meter(ctx, sys->eventQueue(), "harness.run");
                sys->runEvents(crash_index);
            }
            {
                SpanScope span(ctx.spans, "log.crash");
                sys->crash();
            }
            ctx.counts.liveRecordsAtCrash += sys->logRegion().liveRecordCount();
            SpanScope span(ctx.spans, "log.recover");
            sys->recover();
        }
        {
            SpanScope span(ctx.spans, "bench.verify");
            violations = sys->checker()->violations().size();
            events = sys->eventQueue().executedEvents();
            ctx.counts.violations += violations;
            ctx.counts.events += events;
            ctx.counts.addReport(sys->report());
            ++ctx.counts.fuzzCases;
        }
        {
            SpanScope span(ctx.spans, "harness.destruct");
            sys.reset();
        }
        return events;
    }

    const Options &_opts;
    /** One campaign call per program. */
    std::vector<silo::fuzz::FuzzOptions> _calls;
};

} // namespace

std::unique_ptr<Workload>
makeLitmusCrash(const Options &opts)
{
    return std::make_unique<LitmusCrash>(opts);
}

} // namespace perfbench
