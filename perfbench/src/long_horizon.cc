/**
 * @file
 * long_horizon: one long single-core Bank run per scheme (all six),
 * past the 16-bit txid space. Each run crashes at a seed-chosen event
 * after the wrap and is recovered; the recovered media is compared with
 * the committed-prefix oracle of tests/harness/crash_recovery_test.cc,
 * reimplemented here. An op is one run + crash + recovery, and fails
 * on any mismatching word.
 */

#include <cmath>
#include <optional>

#include "harness/system.hh"
#include "workload/trace_gen.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using silo::SchemeKind;
using silo::harness::System;

/** More than the 65,536 txids a 16-bit field can name. */
constexpr std::uint64_t kTxPerThread = 66000;
/** First crash point: committed transactions past the wrap. */
constexpr std::uint64_t kCrashAfterTx = 65540;
/** Seed-chosen spread of the crash point beyond kCrashAfterTx. */
constexpr std::uint64_t kCrashSpreadTx = 360;
/** Events between two reference-kernel samples inside a run. */
constexpr std::uint64_t kSampleEvents = 1u << 17;
/** Reference seconds of one pass; sizes a run to --seconds. */
constexpr double kPassSeconds = 5.0;

class LongHorizon final : public Workload
{
  public:
    explicit LongHorizon(const Options &opts) : _opts(opts)
    {
        std::uint64_t r = mixSeed(opts.seed);
        _crashTx = kCrashAfterTx + r % (kCrashSpreadTx + 1);
        _extraEvents = (r >> 32) % 16;
    }

    unsigned setupReps() const override { return 5; }

    void
    setup(PassContext &ctx) override
    {
        _traces.reset();
        silo::workload::TraceGenConfig tg;
        tg.kind = silo::workload::WorkloadKind::Bank;
        tg.numThreads = 1;
        tg.transactionsPerThread = kTxPerThread;
        tg.seed = _opts.seed;
        ctx.sampleKernel();
        {
            SpanScope span(ctx.spans, "workload.tracegen");
            _traces.emplace(silo::workload::generateTraces(tg));
        }
        ctx.sampleKernel();
    }

    unsigned
    passes(double seconds) const override
    {
        return unsigned(std::max(1.0, std::ceil(seconds / kPassSeconds)));
    }

    void
    pass(PassContext &ctx) override
    {
        for (std::size_t s = 0; s < std::size(silo::allSchemes); ++s)
            ctx.noteOp(runOp(ctx, silo::allSchemes[s], s == 0));
    }

    std::map<std::string, double>
    extras() const override
    {
        return {{"crash_after_tx", double(_crashTx)},
                {"extra_events", double(_extraEvents)}};
    }

  private:
    std::string
    runOp(PassContext &ctx, SchemeKind scheme, bool first)
    {
        const silo::workload::WorkloadTraces &traces = *_traces;
        SpanScope op(ctx.spans, "op", ctx.spans ? ctx.spans->newOp() : 0);
        // Opened before the System's stack is claimed (see eval_matrix).
        SpanScope construct(ctx.spans, "harness.construct");
        AllocDelta allocs;
        silo::SimConfig cfg;
        cfg.numCores = 1;
        cfg.scheme = scheme;
        std::optional<System> sys;
        sys.emplace(cfg, traces);
        ctx.counts.constructAllocs += allocs.count();
        ctx.counts.constructBytes += allocs.bytes();
        ++ctx.counts.systems;
        construct.close();
        {
            RunMeter meter(ctx, sys->eventQueue(), "harness.run");
            // A core commits at most one transaction per event (the
            // next step is always a new event), so a slice no longer
            // than the transactions still to commit cannot overshoot:
            // the run stops on the event that reaches the target,
            // whatever the kernel sampling.
            bool more = true;
            std::uint64_t since_sample = 0;
            while (more && sys->coreAt(0).committedTx() < _crashTx) {
                std::uint64_t n = _crashTx - sys->coreAt(0).committedTx();
                more = sys->runEvents(n);
                since_sample += n;
                if (since_sample >= kSampleEvents) {
                    ctx.sampleKernel();
                    since_sample = 0;
                }
            }
            if (more && _extraEvents)
                sys->runEvents(_extraEvents);
        }
        std::uint64_t committed = sys->coreAt(0).committedTx();
        {
            SpanScope span(ctx.spans, "log.crash");
            sys->crash();
        }
        std::uint64_t live = sys->logRegion().liveRecordCount();
        {
            SpanScope span(ctx.spans, "log.recover");
            sys->recover();
        }
        std::string why;
        {
            SpanScope span(ctx.spans, "bench.verify");
            why = verify(ctx, *sys, first);
            ctx.counts.liveRecordsAtCrash += live;
            ctx.counts.events += sys->eventQueue().executedEvents();
            ctx.counts.addReport(sys->report());
            ctx.digest.add(std::uint64_t(scheme));
            ctx.digest.add(committed);
            ctx.digest.add(sys->eventQueue().executedEvents());
            ctx.digest.add(sys->eventQueue().now());
            ctx.digest.add(std::uint64_t(live));
        }
        {
            SpanScope span(ctx.spans, "harness.destruct");
            sys.reset();
        }
        if (why.empty() && committed < _crashTx)
            why = std::string(silo::schemeName(scheme)) +
                  ": run ended before the crash point";
        return why;
    }

    /**
     * The committed-prefix oracle: the initial image plus the stores
     * of every durably committed transaction, in trace order. A
     * commit in flight at the crash counts when the scheme durably
     * recorded it.
     */
    std::string
    verify(PassContext &ctx, System &sys, bool first)
    {
        const silo::workload::WorkloadTraces &traces = *_traces;
        silo::WordStore expected = traces.initialMemory;
        std::size_t upto = sys.coreAt(0).committedOpIndex();
        if (sys.scheme().lastTxCommittedAtCrash(0))
            upto = std::max(upto, sys.coreAt(0).commitRequestedOpIndex());
        for (std::size_t i = 0; i < upto; ++i) {
            const auto &op = traces.threads[0].ops[i];
            if (op.kind == silo::workload::TxOp::Kind::Store)
                expected[op.addr] = op.value;
        }
        silo::WordStore &media = sys.pm().media();
        if (ctx.opts.flipWord && first) {
            for (const auto &[addr, value] : expected) {
                media.store(addr, media.load(addr) ^ 1);
                break;
            }
        }
        std::uint64_t mismatches = 0;
        for (const auto &[addr, value] : expected) {
            silo::Word got = media.load(addr);
            ctx.digest.add(got);
            mismatches += got != value;
        }
        ctx.counts.mismatchWords += mismatches;
        if (mismatches)
            return std::string(silo::schemeName(sys.config().scheme)) +
                   ": " + std::to_string(mismatches) +
                   " word(s) differ from the committed-prefix oracle";
        return "";
    }

    const Options &_opts;
    std::optional<silo::workload::WorkloadTraces> _traces;
    std::uint64_t _crashTx = 0;
    std::uint64_t _extraEvents = 0;
};

} // namespace

std::unique_ptr<Workload>
makeLongHorizon(const Options &opts)
{
    return std::make_unique<LongHorizon>(opts);
}

} // namespace perfbench
