/**
 * @file
 * Unit tests for the Silo scheme's mechanisms: log ignorance, merging,
 * flush-bits, overflow batching, commit draining, and selective crash
 * flushing — driven through a minimal hand-built system.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "silo/silo_scheme.hh"
#include "workload/trace_gen.hh"

namespace silo::silo_scheme
{
namespace
{

using workload::TxOp;

/** Build traces from an explicit op list for one thread. */
workload::WorkloadTraces
traceOf(std::vector<TxOp> ops,
        std::unordered_map<Addr, Word> initial = {})
{
    workload::WorkloadTraces t;
    t.threads.resize(1);
    t.threads[0].ops = std::move(ops);
    for (const auto &op : t.threads[0].ops) {
        if (op.kind == TxOp::Kind::TxEnd)
            ++t.threads[0].numTransactions;
    }
    t.initialMemory = std::move(initial);
    t.finalMemory = t.initialMemory;
    for (const auto &op : t.threads[0].ops) {
        if (op.kind == TxOp::Kind::Store)
            t.finalMemory[op.addr] = op.value;
    }
    return t;
}

constexpr Addr base = addr_map::dataRegionBase;

TxOp begin() { return {TxOp::Kind::TxBegin, 0, 0}; }
TxOp end() { return {TxOp::Kind::TxEnd, 0, 0}; }
TxOp st(Addr a, Word v) { return {TxOp::Kind::Store, a, v}; }

SimConfig
oneCore()
{
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = SchemeKind::Silo;
    return cfg;
}

const LogReductionStats &
reduction(harness::System &sys)
{
    return dynamic_cast<SiloScheme &>(sys.scheme()).reductionStats();
}

TEST(SiloMechanisms, SilentStoreIsIgnored)
{
    // Store the value already present: no log entry (§III-C).
    auto traces = traceOf({begin(), st(base, 7), end()},
                          {{base, 7}});
    harness::System sys(oneCore(), traces);
    sys.run();
    EXPECT_EQ(reduction(sys).ignored.value(), 1u);
    EXPECT_EQ(reduction(sys).remainingLogsPerTx.mean(), 0.0);
}

TEST(SiloMechanisms, SameWordStoresMerge)
{
    auto traces = traceOf({begin(), st(base, 1), st(base, 2),
                           st(base, 3), end()});
    harness::System sys(oneCore(), traces);
    sys.run();
    EXPECT_EQ(reduction(sys).merged.value(), 2u);
    EXPECT_DOUBLE_EQ(reduction(sys).totalLogsPerTx.mean(), 3.0);
    EXPECT_DOUBLE_EQ(reduction(sys).remainingLogsPerTx.mean(), 1.0);

    // Merged entry carries the oldest old and newest new data: after
    // a drain, only the final value is in PM.
    sys.drainToMedia();
    EXPECT_EQ(sys.pm().media().load(base), 3u);
}

TEST(SiloMechanisms, MergingDoesNotCrossTransactions)
{
    auto traces = traceOf({begin(), st(base, 1), end(),
                           begin(), st(base, 2), end()});
    harness::System sys(oneCore(), traces);
    sys.run();
    EXPECT_EQ(reduction(sys).merged.value(), 0u);
    EXPECT_DOUBLE_EQ(reduction(sys).remainingLogsPerTx.mean(), 1.0);
}

TEST(SiloMechanisms, CommitWritesNewDataInPlace)
{
    auto traces = traceOf({begin(), st(base, 42),
                           st(base + 8, 43), end()});
    harness::System sys(oneCore(), traces);
    sys.run();
    sys.settle();
    sys.mc().drainAll();
    // Without any cache flush, the new data reached PM via the
    // log-as-data path.
    EXPECT_EQ(sys.pm().media().load(base), 42u);
    EXPECT_EQ(sys.pm().media().load(base + 8), 43u);
    EXPECT_EQ(reduction(sys).inPlaceUpdates.value(), 2u);
    // And no log records were written in this failure-free run.
    EXPECT_EQ(sys.report().logRecordsWritten, 0u);
}

TEST(SiloMechanisms, OverflowEvictsBatchOfUndoLogs)
{
    // 30 distinct words exceed the 20-entry buffer: a batch of
    // N = 256/18 = 14 undo logs is evicted (§III-F).
    std::vector<TxOp> ops = {begin()};
    for (unsigned i = 0; i < 30; ++i)
        ops.push_back(st(base + i * 8, i + 1));
    ops.push_back(end());
    auto traces = traceOf(std::move(ops));

    harness::System sys(oneCore(), traces);
    sys.run();
    EXPECT_EQ(reduction(sys).overflows.value(), 14u);
    EXPECT_EQ(sys.report().logRecordsWritten, 14u);

    // Durability still holds for every word.
    sys.drainToMedia();
    for (unsigned i = 0; i < 30; ++i)
        EXPECT_EQ(sys.pm().media().load(base + i * 8), i + 1);
}

TEST(SiloMechanisms, OverflowBatchSizeFollowsBufferLine)
{
    // N comes from the 256 B on-PM buffer line, not the log buffer:
    // a 40-entry buffer still evicts batches of N = 256/18 = 14, two
    // of them for 60 distinct words.
    SimConfig cfg = oneCore();
    cfg.logBufferEntries = 40;
    std::vector<TxOp> ops = {begin()};
    for (unsigned i = 0; i < 60; ++i)
        ops.push_back(st(base + i * 8, i + 1));
    ops.push_back(end());
    auto traces = traceOf(std::move(ops));

    harness::System sys(cfg, traces);
    sys.run();
    EXPECT_EQ(reduction(sys).overflows.value(), 28u);
    EXPECT_EQ(sys.report().logRecordsWritten, 28u);
}

TEST(SiloMechanisms, CrashBeforeCommitRevokesEverything)
{
    auto traces = traceOf({begin(), st(base, 9), st(base + 8, 10),
                           end()},
                          {{base, 1}, {base + 8, 2}});
    harness::System sys(oneCore(), traces);
    // Run until both stores retired but the transaction is open.
    while (sys.values().load(base + 8) != 10)
        sys.runEvents(1);
    ASSERT_TRUE(sys.coreAt(0).inTransaction());
    sys.crash();
    sys.recover();
    EXPECT_EQ(sys.pm().media().load(base), 1u);
    EXPECT_EQ(sys.pm().media().load(base + 8), 2u);
}

TEST(SiloMechanisms, CrashAfterCommitReplaysRedo)
{
    auto traces = traceOf({begin(), st(base, 9), end()},
                          {{base, 1}});
    harness::System sys(oneCore(), traces);
    sys.run();   // committed; in-place update may or may not be done
    sys.crash();
    sys.recover();
    EXPECT_EQ(sys.pm().media().load(base), 9u);
}

TEST(SiloMechanisms, CrashFlushIsSelective)
{
    // Uncommitted tx -> undo bytes only (18 B per entry).
    auto traces = traceOf({begin(), st(base, 9), end()},
                          {{base, 1}});
    harness::System sys(oneCore(), traces);
    while (sys.values().load(base) != 9)
        sys.runEvents(1);
    ASSERT_TRUE(sys.coreAt(0).inTransaction());
    sys.crash();
    EXPECT_EQ(sys.scheme().schemeStats().crashFlushBytes.value(),
              std::uint64_t(undoLogEntryBytes));
}

TEST(SiloMechanisms, StagedUpdateSurvivesTxidWrap)
{
    // Transactions 1..65534 are empty; the store commits as txid
    // 65535, and the next transaction begins the wrapped txid 0 while
    // the store's in-place update still waits in the battery domain.
    std::vector<TxOp> ops;
    for (unsigned t = 1; t <= 65534; ++t) {
        ops.push_back(begin());
        ops.push_back(end());
    }
    ops.push_back(begin());
    ops.push_back(st(base, 9));
    ops.push_back(end());
    ops.push_back(begin());
    ops.push_back(st(base + 8, 3));
    ops.push_back(end());
    auto traces = traceOf(std::move(ops), {{base, 1}, {base + 8, 2}});

    harness::System sys(oneCore(), traces);
    while (!(sys.coreAt(0).committedTx() == 65535 &&
             sys.coreAt(0).inTransaction())) {
        ASSERT_TRUE(sys.runEvents(1));
    }
    ASSERT_EQ(sys.coreAt(0).currentTxid(), 0u);
    ASSERT_EQ(dynamic_cast<SiloScheme &>(sys.scheme()).stagedUpdates(0),
              1u);
    sys.crash();
    sys.recover();
    EXPECT_EQ(sys.pm().media().load(base), 9u);
    EXPECT_EQ(sys.pm().media().load(base + 8), 2u);
}

TEST(SiloMechanisms, TotalAndRemainingLogStatsPerTx)
{
    auto traces = traceOf({begin(), st(base, 1), st(base, 2),
                           st(base + 8, 5), end()},
                          {{base + 8, 5}});   // third store is silent
    harness::System sys(oneCore(), traces);
    sys.run();
    EXPECT_DOUBLE_EQ(reduction(sys).totalLogsPerTx.mean(), 3.0);
    // One append (base), one merge, one ignored.
    EXPECT_DOUBLE_EQ(reduction(sys).remainingLogsPerTx.mean(), 1.0);
    EXPECT_EQ(reduction(sys).maxRemainingLogs, 1u);
}

TEST(SiloMechanisms, BufferLatencyOffCriticalPath)
{
    std::vector<TxOp> ops;
    for (int t = 0; t < 20; ++t) {
        ops.push_back(begin());
        for (unsigned i = 0; i < 10; ++i)
            ops.push_back(st(base + i * 8, Word(t * 100 + i + 1)));
        ops.push_back(end());
    }
    auto traces = traceOf(std::move(ops));

    SimConfig fast = oneCore();
    fast.logBufferLatency = 8;
    harness::System sys_fast(fast, traces);
    sys_fast.run();

    SimConfig slow = oneCore();
    slow.logBufferLatency = 128;
    harness::System sys_slow(slow, traces);
    sys_slow.run();

    // Fig. 15: a 16x slower buffer costs almost nothing.
    double ratio = double(sys_slow.report().ticks) /
                   double(sys_fast.report().ticks);
    EXPECT_LT(ratio, 1.10);
}

} // namespace
} // namespace silo::silo_scheme
