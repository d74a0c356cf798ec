/**
 * @file
 * Unit tests of the segmented log lifecycle engine (DESIGN.md §4j):
 * the cleaner and checkpoint engage under a tiny segment geometry,
 * admission backpressure defers and releases append completions, the
 * overrun window prevents livelock when the ring cannot drain, and
 * the "log_lifecycle" stat group exists only when segmentation is on
 * (the golden-JSON byte-identity contract).
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "log/log_lifecycle.hh"
#include "workload/trace_gen.hh"

namespace silo::log
{
namespace
{

using workload::TxOp;

constexpr Addr base = addr_map::dataRegionBase;

TxOp begin() { return {TxOp::Kind::TxBegin, 0, 0}; }
TxOp end() { return {TxOp::Kind::TxEnd, 0, 0}; }
TxOp st(Addr a, Word v) { return {TxOp::Kind::Store, a, v}; }

workload::WorkloadTraces
traceOf(std::vector<TxOp> ops)
{
    workload::WorkloadTraces t;
    t.threads.resize(1);
    t.threads[0].ops = std::move(ops);
    for (const auto &op : t.threads[0].ops) {
        if (op.kind == TxOp::Kind::TxEnd)
            ++t.threads[0].numTransactions;
    }
    for (const auto &op : t.threads[0].ops) {
        if (op.kind == TxOp::Kind::Store)
            t.finalMemory[op.addr] = op.value;
    }
    return t;
}

/** Churn: @p txs transactions of @p stores stores each. */
workload::WorkloadTraces
churn(unsigned txs, unsigned stores)
{
    std::vector<TxOp> ops;
    Word v = 1;
    for (unsigned t = 0; t < txs; ++t) {
        ops.push_back(begin());
        for (unsigned s = 0; s < stores; ++s)
            ops.push_back(st(base + 8 * (s % 16), v++));
        ops.push_back(end());
    }
    return traceOf(ops);
}

/** The fuzzer's tiny geometry: one-PM-line segments, 4-slot ring. */
SimConfig
tinySegmented(SchemeKind scheme)
{
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = scheme;
    cfg.logSegmented = true;
    cfg.logSegmentBytes = pmBufferLineBytes;
    cfg.logSegmentsPerThread = 4;
    cfg.logCleanReserve = 1;
    cfg.logCheckpointBytes = 512;
    cfg.logLifecycleTickCycles = 64;
    cfg.logCleanPerRecordCycles = 8;
    cfg.logCheckpointPerWordCycles = 8;
    cfg.validate();
    return cfg;
}

TEST(LogLifecycle, CleanerAndCheckpointEngageUnderChurn)
{
    // FWB never truncates on its own, so log pressure is guaranteed:
    // the cleaner must reclaim segments and checkpoints must retire
    // committed records for the run to stay inside the ring bound.
    auto traces = churn(6, 12);
    harness::System sys(tinySegmented(SchemeKind::Fwb), traces);
    sys.run();

    ASSERT_NE(sys.lifecycle(), nullptr);
    const LifecycleStats &ls = sys.lifecycle()->lifecycleStats();
    EXPECT_GT(ls.segmentsReclaimed.value(), 0u);
    EXPECT_GT(ls.checkpoints.value(), 0u);
    EXPECT_GT(ls.recordsDropped.value(), 0u);

    // The ring bound held: at most segmentsPerThread non-clean
    // segments once the lifecycle settles.
    sys.settle();
    EXPECT_LE(sys.logRegion().nonCleanSegments(0), 4u);
}

TEST(LogLifecycle, FinalStateIsCorrectUnderSegmentation)
{
    auto traces = churn(4, 10);
    harness::System sys(tinySegmented(SchemeKind::Base), traces);
    sys.finish();
    for (const auto &[addr, value] : traces.finalMemory)
        EXPECT_EQ(sys.pm().media().load(addr), value)
            << "addr 0x" << std::hex << addr;
}

TEST(LogLifecycle, BackpressureStallsAndReleasesAppends)
{
    // A transaction larger than the whole ring: its records are live
    // and uncommitted, so only migration (not truncation) can make
    // room, and append completions must stall on the way.
    auto traces = churn(2, 40);
    harness::System sys(tinySegmented(SchemeKind::Fwb), traces);
    sys.run();

    const LifecycleStats &ls = sys.lifecycle()->lifecycleStats();
    EXPECT_GT(ls.admissionStalls.value(), 0u);
    EXPECT_GT(ls.recordsMigrated.value(), 0u);
    // Every deferred completion was eventually released: the run
    // finished and nothing is still gated.
    EXPECT_EQ(sys.lifecycle()->gatedCount(0), 0u);
}

TEST(LogLifecycle, OverrunWindowPreventsLivelock)
{
    // A 2-segment ring with reserve 1 is in permanent backpressure
    // (the active segment alone consumes half the ring): without the
    // overrun window every gated completion would wait forever. The
    // run completing at all is the property under test.
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = SchemeKind::Base;
    cfg.logSegmented = true;
    cfg.logSegmentBytes = pmBufferLineBytes;
    cfg.logSegmentsPerThread = 2;
    cfg.logCleanReserve = 1;
    cfg.logCheckpointBytes = 512;
    cfg.logLifecycleTickCycles = 16;
    cfg.logCleanPerRecordCycles = 4;
    cfg.logCheckpointPerWordCycles = 4;
    cfg.validate();

    auto traces = churn(1, 6);
    harness::System sys(cfg, traces);
    sys.run();

    const LifecycleStats &ls = sys.lifecycle()->lifecycleStats();
    EXPECT_GT(ls.ringOverruns.value(), 0u);
    EXPECT_EQ(sys.lifecycle()->gatedCount(0), 0u);
    sys.settle();
    sys.drainToMedia();
    for (const auto &[addr, value] : traces.finalMemory)
        EXPECT_EQ(sys.pm().media().load(addr), value);
}

TEST(LogLifecycle, StatGroupRegisteredOnlyWhenSegmented)
{
    auto traces = churn(2, 4);
    {
        harness::System sys(tinySegmented(SchemeKind::Base), traces);
        sys.run();
        EXPECT_NE(sys.statsJson().find("log_lifecycle"),
                  std::string::npos);
    }
    {
        SimConfig cfg;
        cfg.numCores = 1;
        cfg.scheme = SchemeKind::Base;
        harness::System sys(cfg, traces);
        sys.run();
        // Byte-identity contract: segmentation off leaves the stats
        // document exactly as before the lifecycle existed.
        EXPECT_EQ(sys.statsJson().find("log_lifecycle"),
                  std::string::npos);
        EXPECT_EQ(sys.lifecycle(), nullptr);
    }
}

} // namespace
} // namespace silo::log
