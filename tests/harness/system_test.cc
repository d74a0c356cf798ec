/**
 * @file
 * End-to-end integration tests: every scheme runs real workloads to
 * completion, commits every transaction, and leaves the PM media image
 * exactly equal to the functional final memory after a clean drain.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "log/fwb_scheme.hh"
#include "silo/silo_scheme.hh"
#include "workload/trace_gen.hh"

namespace silo::harness
{
namespace
{

workload::WorkloadTraces
makeTraces(workload::WorkloadKind kind, unsigned threads,
           std::uint64_t tx)
{
    workload::TraceGenConfig tg;
    tg.kind = kind;
    tg.numThreads = threads;
    tg.transactionsPerThread = tx;
    tg.seed = 11;
    return workload::generateTraces(tg);
}

SimConfig
smallConfig(SchemeKind scheme, unsigned cores)
{
    SimConfig cfg;
    cfg.numCores = cores;
    cfg.scheme = scheme;
    return cfg;
}

std::string
schemeParamName(const ::testing::TestParamInfo<SchemeKind> &info)
{
    std::string name = schemeName(info.param);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

class SchemeIntegration : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(SchemeIntegration, HashRunsToCompletionAndMediaMatches)
{
    auto traces = makeTraces(workload::WorkloadKind::Hash, 2, 40);
    System sys(smallConfig(GetParam(), 2), traces);
    sys.run();

    auto report = sys.report();
    EXPECT_EQ(report.committedTransactions, 2u * 40);
    EXPECT_GT(report.ticks, 0u);

    sys.drainToMedia();
    for (const auto &[addr, value] : traces.finalMemory) {
        ASSERT_EQ(sys.pm().media().load(addr), value)
            << "addr 0x" << std::hex << addr;
    }
}

TEST_P(SchemeIntegration, TpccRunsToCompletionAndMediaMatches)
{
    auto traces = makeTraces(workload::WorkloadKind::Tpcc, 2, 20);
    System sys(smallConfig(GetParam(), 2), traces);
    sys.run();
    EXPECT_EQ(sys.report().committedTransactions, 2u * 20);

    sys.drainToMedia();
    for (const auto &[addr, value] : traces.finalMemory) {
        ASSERT_EQ(sys.pm().media().load(addr), value)
            << "addr 0x" << std::hex << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeIntegration,
                         ::testing::ValuesIn(allSchemes),
                         schemeParamName);

TEST(SystemBehaviour, SiloCommitsFasterThanBase)
{
    auto traces = makeTraces(workload::WorkloadKind::Hash, 2, 60);

    System base(smallConfig(SchemeKind::Base, 2), traces);
    base.run();
    System silo(smallConfig(SchemeKind::Silo, 2), traces);
    silo.run();

    EXPECT_LT(silo.report().ticks, base.report().ticks);
    // Silo's commit wait is exactly the on-chip ACK round trip.
    EXPECT_EQ(silo.report().commitStallCycles,
              2u * 60 * silo_scheme::commitAckCycles);
}

TEST(SystemBehaviour, SiloWritesLessMediaThanLogAsBackupSchemes)
{
    auto traces = makeTraces(workload::WorkloadKind::Btree, 2, 60);

    auto words_for = [&](SchemeKind kind) {
        System sys(smallConfig(kind, 2), traces);
        sys.run();
        sys.drainToMedia();
        return sys.report().mediaWordWrites;
    };

    auto silo_words = words_for(SchemeKind::Silo);
    EXPECT_LT(silo_words, words_for(SchemeKind::Base));
    EXPECT_LT(silo_words, words_for(SchemeKind::Fwb));
    EXPECT_LT(silo_words, words_for(SchemeKind::MorLog));
}

TEST(SystemBehaviour, SiloWritesNoLogRecordsInFailureFreeSmallTx)
{
    // Bank transactions write 4 words — far below the 20-entry buffer,
    // so no overflow and no log-region writes at all in a crash-free
    // run ("Log as Data", §III-D).
    auto traces = makeTraces(workload::WorkloadKind::Bank, 2, 80);
    System sys(smallConfig(SchemeKind::Silo, 2), traces);
    sys.run();
    EXPECT_EQ(sys.report().logRecordsWritten, 0u);
    sys.drainToMedia();
    EXPECT_EQ(sys.pm().logRegionWordWrites(), 0u);
}

TEST(SystemBehaviour, BaseWritesLogRecordPerNonLocalStore)
{
    auto traces = makeTraces(workload::WorkloadKind::Bank, 1, 50);
    System sys(smallConfig(SchemeKind::Base, 1), traces);
    sys.run();
    auto stats = workload::analyzeWriteSets(traces.threads[0]);
    // One undo+redo record per store plus one commit marker per tx.
    EXPECT_EQ(sys.report().logRecordsWritten,
              std::uint64_t(stats.avgStoreOps * 50) + 50);
}

TEST(SystemBehaviour, ThroughputReportedConsistently)
{
    auto traces = makeTraces(workload::WorkloadKind::Queue, 1, 30);
    System sys(smallConfig(SchemeKind::Silo, 1), traces);
    sys.run();
    auto report = sys.report();
    EXPECT_NEAR(report.txPerMillionCycles,
                30.0 * 1e6 / double(report.ticks), 1e-9);
}

TEST(SystemBehaviour, FwbWalkerForcesWritebacks)
{
    auto traces = makeTraces(workload::WorkloadKind::Hash, 1, 40);
    SimConfig cfg = smallConfig(SchemeKind::Fwb, 1);
    cfg.fwbIntervalCycles = 5000;   // walk often in this tiny run
    System sys(cfg, traces);
    sys.run();
    auto &scheme = dynamic_cast<log::FwbScheme &>(sys.scheme());
    EXPECT_GT(scheme.walkerWritebacks(), 0u);
}

TEST(SystemBehaviour, MismatchedTraceThreadsIsFatal)
{
    auto traces = makeTraces(workload::WorkloadKind::Bank, 1, 5);
    EXPECT_THROW(System(smallConfig(SchemeKind::Silo, 2), traces),
                 FatalError);
}

} // namespace
} // namespace silo::harness
