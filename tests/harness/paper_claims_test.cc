/**
 * @file
 * Regression tests pinning the paper's headline claims at reduced
 * scale, so a future change that silently breaks a reproduced shape
 * fails CI rather than only showing in the bench output.
 *
 * The thresholds are deliberately looser than the full-scale bench
 * results (fewer transactions here -> more variance), but tight
 * enough that a regression to "no effect" cannot pass.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/experiment.hh"
#include "silo/silo_scheme.hh"
#include "stats_json.hh"

namespace silo::harness
{
namespace
{

struct Cell
{
    SimReport report;
};

/** Run scheme x workload at 4 cores, 150 tx/thread. */
SimReport
run(SchemeKind scheme, workload::WorkloadKind kind,
    TraceCache &cache)
{
    workload::TraceGenConfig tg;
    tg.kind = kind;
    tg.numThreads = 4;
    tg.transactionsPerThread = 150;
    const auto &traces = cache.get(tg);
    SimConfig cfg;
    cfg.numCores = 4;
    cfg.scheme = scheme;
    return runCell(cfg, traces);
}

class PaperClaims : public ::testing::Test
{
  protected:
    static TraceCache cache;
};

TraceCache PaperClaims::cache;

TEST_F(PaperClaims, SiloReducesMediaWritesVersusLogAsBackup)
{
    // §VI-B: Silo cuts PM media writes by ~76.5% vs MorLog and ~82%
    // vs FWB on average. At this scale require >= 55% on Hash.
    auto silo_rep = run(SchemeKind::Silo, workload::WorkloadKind::Hash,
                        cache);
    auto mor = run(SchemeKind::MorLog, workload::WorkloadKind::Hash,
                   cache);
    auto fwb = run(SchemeKind::Fwb, workload::WorkloadKind::Hash,
                   cache);
    double vs_mor = 1.0 - double(silo_rep.mediaWordWrites) /
                              double(mor.mediaWordWrites);
    double vs_fwb = 1.0 - double(silo_rep.mediaWordWrites) /
                              double(fwb.mediaWordWrites);
    EXPECT_GT(vs_mor, 0.55);
    EXPECT_GT(vs_fwb, 0.55);
}

TEST_F(PaperClaims, SiloWriteTrafficApproximatesLad)
{
    // §VI-B: "Silo ... exhibits approximate write traffic with LAD."
    auto silo_rep = run(SchemeKind::Silo, workload::WorkloadKind::Hash,
                        cache);
    auto lad = run(SchemeKind::Lad, workload::WorkloadKind::Hash,
                   cache);
    double ratio = double(silo_rep.mediaWordWrites) /
                   double(lad.mediaWordWrites);
    EXPECT_GT(ratio, 0.6);
    EXPECT_LT(ratio, 1.6);
}

TEST_F(PaperClaims, ThroughputOrderingMatchesFig12)
{
    // §VI-C at 8 cores: Base < FWB/MorLog < LAD < Silo. Use YCSB
    // (a well-behaved middle-of-the-pack benchmark).
    auto base = run(SchemeKind::Base, workload::WorkloadKind::Ycsb,
                    cache);
    auto mor = run(SchemeKind::MorLog, workload::WorkloadKind::Ycsb,
                   cache);
    auto lad = run(SchemeKind::Lad, workload::WorkloadKind::Ycsb,
                   cache);
    auto silo_rep = run(SchemeKind::Silo, workload::WorkloadKind::Ycsb,
                        cache);
    EXPECT_GT(mor.txPerMillionCycles, base.txPerMillionCycles);
    EXPECT_GT(lad.txPerMillionCycles, mor.txPerMillionCycles);
    EXPECT_GT(silo_rep.txPerMillionCycles, lad.txPerMillionCycles);
}

TEST_F(PaperClaims, SiloCommitIsOrderingFree)
{
    // §III-D: Tx_end waits only for the on-chip ACK, never for PM.
    auto silo_rep = run(SchemeKind::Silo, workload::WorkloadKind::Tpcc,
                        cache);
    EXPECT_EQ(silo_rep.commitStallCycles,
              silo_rep.committedTransactions *
                  silo_scheme::commitAckCycles);
}

TEST_F(PaperClaims, FailureFreeSiloWritesNoLogs)
{
    // "Log as Data": without crashes or overflow, the log region
    // stays untouched. Bank/TATP write sets are far below 20 entries.
    for (auto kind : {workload::WorkloadKind::Bank,
                      workload::WorkloadKind::Tatp}) {
        auto rep = run(SchemeKind::Silo, kind, cache);
        EXPECT_EQ(rep.logRecordsWritten, 0u)
            << workload::workloadName(kind);
    }
}

TEST_F(PaperClaims, ArrayIgnoranceRateNearPaper)
{
    // §VI-D: ~90.4% of Array's logs are ignored (silent stores).
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Array;
    tg.numThreads = 1;
    tg.transactionsPerThread = 200;
    const auto &traces = cache.get(tg);
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = SchemeKind::Silo;
    System sys(cfg, traces);
    sys.run();
    const auto &red = dynamic_cast<silo_scheme::SiloScheme &>(
                          sys.scheme()).reductionStats();
    double rate = double(red.ignored.value()) /
                  red.totalLogsPerTx.sum();
    EXPECT_GT(rate, 0.80);
    EXPECT_LT(rate, 0.95);
}

TEST_F(PaperClaims, TwentyEntryBufferHoldsEvaluationWriteSets)
{
    // §VI-D: a 20-entry buffer suffices — Hash peaks at 20 remaining.
    for (auto kind : {workload::WorkloadKind::Hash,
                      workload::WorkloadKind::Ycsb,
                      workload::WorkloadKind::Queue}) {
        workload::TraceGenConfig tg;
        tg.kind = kind;
        tg.numThreads = 1;
        tg.transactionsPerThread = 200;
        const auto &traces = cache.get(tg);
        SimConfig cfg;
        cfg.numCores = 1;
        cfg.scheme = SchemeKind::Silo;
        cfg.logBufferEntries = 4096;   // observe, don't clip
        System sys(cfg, traces);
        sys.run();
        const auto &red = dynamic_cast<silo_scheme::SiloScheme &>(
                              sys.scheme()).reductionStats();
        EXPECT_LE(red.maxRemainingLogs, 20u)
            << workload::workloadName(kind);
    }
}

TEST_F(PaperClaims, StatsDumpHasComponentLines)
{
    auto rep = run(SchemeKind::Silo, workload::WorkloadKind::Bank,
                   cache);
    (void)rep;
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 4;
    tg.transactionsPerThread = 150;
    const auto &traces = cache.get(tg);
    SimConfig cfg;
    cfg.numCores = 4;
    System sys(cfg, traces);
    sys.run();
    std::map<std::string, double> stats = statsNumbers(sys.statsJson());
    for (const char *path :
         {"groups/pm/media_word_writes", "groups/mc/wpq_writes",
          "groups/cache/l1d/0/hits", "groups/cache/l3/misses"}) {
        ASSERT_EQ(stats.count(path), 1u) << path;
        EXPECT_GT(stats[path], 0) << path;
    }
}

} // namespace
} // namespace silo::harness
