/**
 * @file
 * eval_matrix: Figs. 11/12 as users run them. Five evaluated schemes
 * x seven evaluation workloads x 1/2/4/8 cores = 140 cells at 500
 * tx/thread, through harness::Sweep with one worker. Set-up generates
 * the 28 distinct trace sets into sweep.traceCache(); an op is one
 * cell, which fails unless it commits every transaction and its
 * drained media equals System::values().
 */

#include <cmath>
#include <optional>

#include "harness/sweep.hh"
#include "sim/logging.hh"
#include "workload/trace_gen.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using silo::SchemeKind;
using silo::harness::SimReport;
using silo::harness::System;
using silo::workload::WorkloadKind;

constexpr SchemeKind kSchemes[] = {
    SchemeKind::Base, SchemeKind::Fwb, SchemeKind::MorLog,
    SchemeKind::Lad,  SchemeKind::Silo,
};
constexpr unsigned kCores[] = {1, 2, 4, 8};
/** The Fig. 11/12 bench default. */
constexpr std::uint64_t kTxPerThread = 500;
/** Reference seconds of one pass; sizes a run to --seconds. */
constexpr double kPassSeconds = 10.0;

/** The paper's 8-core Silo ratios (Fig. 12 throughput, Fig. 11 writes). */
constexpr double kPaperThroughput[] = {1.5, 4.3, 6.4};
constexpr SchemeKind kThroughputVs[] = {SchemeKind::Lad, SchemeKind::MorLog,
                                        SchemeKind::Fwb};
constexpr double kPaperWrites[] = {1 - 0.765, 1 - 0.82};
constexpr SchemeKind kWritesVs[] = {SchemeKind::MorLog, SchemeKind::Fwb};

struct Cell
{
    unsigned cores;
    WorkloadKind workload;
    SchemeKind scheme;
};

silo::workload::TraceGenConfig
traceConfig(const Cell &cell, std::uint64_t seed)
{
    silo::workload::TraceGenConfig tg;
    tg.kind = cell.workload;
    tg.numThreads = cell.cores;
    tg.transactionsPerThread = kTxPerThread;
    tg.seed = seed;
    return tg;
}

std::string
label(const Cell &cell)
{
    return std::string(silo::workload::workloadName(cell.workload)) + "/" +
           silo::schemeName(cell.scheme) + "/" +
           std::to_string(cell.cores) + "c";
}

class EvalMatrix final : public Workload
{
  public:
    explicit EvalMatrix(const Options &opts) : _opts(opts)
    {
        for (unsigned cores : kCores)
            for (WorkloadKind wl : silo::workload::evaluationWorkloads)
                for (SchemeKind scheme : kSchemes)
                    _cells.push_back(Cell{cores, wl, scheme});
    }

    unsigned setupReps() const override { return 3; }

    void
    setup(PassContext &ctx) override
    {
        _sweep.reset(); // one set-up's traces alive at a time
        auto sweep = std::make_unique<silo::harness::Sweep>(
            silo::harness::Sweep::Options{1, false});
        for (std::size_t i = 0; i < _cells.size(); ++i) {
            silo::harness::CellSpec spec;
            spec.sim.numCores = _cells[i].cores;
            spec.sim.scheme = _cells[i].scheme;
            spec.trace = traceConfig(_cells[i], _opts.seed);
            spec.label = label(_cells[i]);
            spec.runner = [this, i](const silo::SimConfig &cfg,
                                    const silo::workload::WorkloadTraces
                                        &traces) {
                return runOp(i, cfg, traces);
            };
            sweep->add(std::move(spec));
        }
        for (const auto &spec : sweep->specs()) {
            if (sweep->traceCache().contains(spec.trace))
                continue;
            ctx.sampleKernel();
            SpanScope span(ctx.spans, "workload.tracegen");
            sweep->traceCache().insert(
                spec.trace, silo::workload::generateTraces(spec.trace));
        }
        _sweep = std::move(sweep);
    }

    unsigned
    passes(double seconds) const override
    {
        return unsigned(std::max(1.0, std::ceil(seconds / kPassSeconds)));
    }

    void
    pass(PassContext &ctx) override
    {
        _ctx = &ctx;
        _reports.assign(_cells.size(), SimReport{});
        _sweep->run();
        _ctx = nullptr;
        computeGaps();
    }

    std::map<std::string, double>
    extras() const override
    {
        std::map<std::string, double> out = _gaps;
        // Drift audit: the kernel's median after each scheme's cells.
        for (SchemeKind s : kSchemes) {
            auto it = _kernelAfter.find(s);
            if (it != _kernelAfter.end())
                out[std::string("kernel_ms_after_") + silo::schemeName(s)] =
                    median(it->second);
        }
        return out;
    }

  private:
    SimReport
    runOp(std::size_t i, const silo::SimConfig &cfg,
          const silo::workload::WorkloadTraces &traces)
    {
        PassContext &ctx = *_ctx;
        SimReport report;
        std::string why;
        {
            SpanScope op(ctx.spans, "op", ctx.spans ? ctx.spans->newOp() : 0);
            // The span opens before the System's ~400 KB of stack is
            // claimed: probing that frame is part of what constructing
            // a System on the stack (as runCell does) costs.
            SpanScope construct(ctx.spans, "harness.construct");
            AllocDelta allocs;
            std::optional<System> sys;
            sys.emplace(cfg, traces);
            ctx.counts.constructAllocs += allocs.count();
            ctx.counts.constructBytes += allocs.bytes();
            ++ctx.counts.systems;
            construct.close();
            {
                RunMeter meter(ctx, sys->eventQueue(), "harness.run");
                sys->run();
            }
            {
                RunMeter meter(ctx, sys->eventQueue(), "harness.drain");
                sys->settle();
                sys->drainToMedia();
            }
            {
                // runCell()'s tail: trace flush (a no-op untraced),
                // headline report, stats registry export.
                SpanScope span(ctx.spans, "harness.stats_export");
                sys->writeTrace();
                report = sys->report();
                report.statsJson = sys->statsJson();
            }
            {
                SpanScope span(ctx.spans, "bench.verify");
                why = verify(i, *sys, report, ctx);
            }
            {
                SpanScope span(ctx.spans, "harness.destruct");
                sys.reset();
            }
        }
        if (ctx.spans && !ctx.counts.addStatsJson(report.statsJson) &&
            why.empty())
            why = label(_cells[i]) + ": stats JSON does not parse";
        ctx.noteOp(why);
        _reports[i] = report;
        ctx.sampleKernel();
        _kernelAfter[_cells[i].scheme].push_back(ctx.drift.samplesMs().back());
        return report;
    }

    /** The op's oracle; returns why it failed, or "". */
    std::string
    verify(std::size_t i, System &sys, const SimReport &report,
           PassContext &ctx)
    {
        const Cell &cell = _cells[i];
        silo::WordStore &media = sys.pm().media();
        if (ctx.opts.flipWord && i == 0) {
            for (const auto &[addr, value] : sys.values()) {
                media.store(addr, media.load(addr) ^ 1);
                break;
            }
        }
        std::uint64_t mismatches = 0;
        for (const auto &[addr, value] : sys.values())
            mismatches += media.load(addr) != value;

        ctx.counts.events += sys.eventQueue().executedEvents();
        ctx.counts.addReport(report);
        ctx.counts.mismatchWords += mismatches;
        Digest &d = ctx.digest;
        d.add(label(cell));
        d.add(report.committedTransactions);
        d.add(report.ticks);
        d.add(report.mediaWordWrites);
        d.add(report.mediaLineWrites);
        d.add(report.dataRegionWordWrites);
        d.add(report.logRegionWordWrites);
        d.add(report.logRecordsWritten);
        d.add(report.commitStallCycles);
        d.add(report.storeStallCycles);
        d.add(report.wpqFullStalls);
        d.add(report.wpqAcceptedWrites);
        d.add(report.wpqAcceptedBytes);
        d.add(report.statsJson);
        d.add(sys.eventQueue().executedEvents());
        d.add(mismatches);

        std::uint64_t want = std::uint64_t(cell.cores) * kTxPerThread;
        if (report.committedTransactions != want)
            return label(cell) + ": committed " +
                   std::to_string(report.committedTransactions) + " of " +
                   std::to_string(want) + " transactions";
        if (mismatches)
            return label(cell) + ": " + std::to_string(mismatches) +
                   " media word(s) differ from values()";
        return "";
    }

    /** Mean relative error of Silo's 8-core geomean ratios vs the paper. */
    void
    computeGaps()
    {
        auto geomeanRatio = [this](SchemeKind other, auto field) {
            double log_sum = 0;
            unsigned n = 0;
            for (WorkloadKind wl : silo::workload::evaluationWorkloads) {
                double silo = field(find(8, wl, SchemeKind::Silo));
                double base = field(find(8, wl, other));
                log_sum += std::log(silo / base);
                ++n;
            }
            return std::exp(log_sum / n);
        };
        auto throughput = [](const SimReport &r) {
            return r.txPerMillionCycles;
        };
        auto writes = [](const SimReport &r) {
            return double(r.mediaWordWrites);
        };
        double gap12 = 0, gap11 = 0;
        for (std::size_t k = 0; k < 3; ++k) {
            double r = geomeanRatio(kThroughputVs[k], throughput);
            _gaps[std::string("silo_over_") +
                  silo::schemeName(kThroughputVs[k]) + "_throughput"] = r;
            gap12 += std::abs(r - kPaperThroughput[k]) / kPaperThroughput[k];
        }
        for (std::size_t k = 0; k < 2; ++k) {
            double r = geomeanRatio(kWritesVs[k], writes);
            _gaps[std::string("silo_over_") + silo::schemeName(kWritesVs[k]) +
                  "_media_writes"] = r;
            gap11 += std::abs(r - kPaperWrites[k]) / kPaperWrites[k];
        }
        _gaps["fig12_gap_pct"] = 100 * gap12 / 3;
        _gaps["fig11_gap_pct"] = 100 * gap11 / 2;
    }

    const SimReport &
    find(unsigned cores, WorkloadKind wl, SchemeKind scheme) const
    {
        for (std::size_t i = 0; i < _cells.size(); ++i) {
            const Cell &c = _cells[i];
            if (c.cores == cores && c.workload == wl && c.scheme == scheme)
                return _reports[i];
        }
        silo::panic("eval_matrix: no such cell");
    }

    const Options &_opts;
    std::vector<Cell> _cells;
    std::unique_ptr<silo::harness::Sweep> _sweep;
    std::vector<SimReport> _reports;
    std::map<std::string, double> _gaps;
    std::map<SchemeKind, std::vector<double>> _kernelAfter;
    PassContext *_ctx = nullptr;
};

} // namespace

std::unique_ptr<Workload>
makeEvalMatrix(const Options &opts)
{
    return std::make_unique<EvalMatrix>(opts);
}

} // namespace perfbench
