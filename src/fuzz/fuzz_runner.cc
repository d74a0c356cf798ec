#include "fuzz/fuzz_runner.hh"

#include "harness/system.hh"

namespace silo::fuzz
{

SimConfig
litmusSimConfig(unsigned threads, SchemeKind scheme,
                MutationKind mutation, bool segmented)
{
    SimConfig cfg;
    cfg.numCores = threads;
    cfg.scheme = scheme;
    cfg.checker = true;
    cfg.mutation = mutation;
    // Tiny caches + log buffer: a handful of stores already causes
    // evictions, overflow and on-PM buffer churn (tests/check idiom).
    cfg.l1d = {1024, 2, 4};
    cfg.l2 = {2048, 2, 12};
    cfg.l3 = {4096, 4, 28};
    cfg.logBufferEntries = 12;
    if (segmented) {
        // One-PM-line segments and a 4-slot ring: a few records
        // trigger cleaning, a few transactions trigger a checkpoint,
        // so the crash sweep lands inside both phases.
        cfg.logSegmented = true;
        cfg.logSegmentBytes = pmBufferLineBytes;
        cfg.logSegmentsPerThread = 4;
        cfg.logCleanReserve = 1;
        cfg.logCheckpointBytes = 512;
        cfg.logLifecycleTickCycles = 64;
        cfg.logCleanPerRecordCycles = 8;
        cfg.logCheckpointPerWordCycles = 8;
    }
    cfg.validate();
    return cfg;
}

LitmusCaseResult
runLitmusCase(const workload::LitmusProgram &program,
              const FuzzCaseConfig &cfg)
{
    const workload::WorkloadTraces traces = workload::litmusTraces(program);
    harness::System sys(litmusSimConfig(unsigned(program.threads.size()),
                                        cfg.scheme, cfg.mutation,
                                        cfg.segmented),
                        traces);
    LitmusCaseResult result;
    result.crashIndex = cfg.crashIndex;
    if (cfg.crashIndex != 0) {
        harness::DomainCopy copy;
        sys.runEvents(cfg.crashIndex);
        sys.crashCopy(copy);
        result.crashed = checkerVerdict(*copy.checker, cfg.crashIndex);
    }
    sys.finish();
    result.completion = checkerVerdict(*sys.checker(), 0);
    result.completion.executedEvents = sys.eventQueue().executedEvents();
    return result;
}

FuzzCaseResult
checkerVerdict(const check::PersistencyChecker &checker,
               std::uint64_t crash_index)
{
    FuzzCaseResult result;
    result.violations = checker.violations();
    for (check::Violation &v : result.violations)
        v.crashIndex = crash_index;
    result.commits = checker.counters().commits;
    return result;
}

} // namespace silo::fuzz
