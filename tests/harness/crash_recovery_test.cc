/**
 * @file
 * Crash-injection property tests: atomic durability must hold at every
 * crash point.
 *
 * A run is stopped after K events, the crash path executes (battery
 * flush, ADR drain, volatile-cache loss), recovery runs, and the PM
 * media image must equal the oracle: the initial image plus exactly
 * the stores of every durably committed transaction — no partial
 * transactions (atomicity), no lost committed transactions
 * (durability). §III-G / Fig. 10 for Silo; the baselines' WAL recovery
 * is held to the same standard.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>

#include "harness/system.hh"
#include "workload/trace_gen.hh"

namespace silo::harness
{
namespace
{

struct CrashCase
{
    SchemeKind scheme;
    workload::WorkloadKind workload;
};

std::string
caseName(const ::testing::TestParamInfo<CrashCase> &info)
{
    std::string name = std::string(schemeName(info.param.scheme)) +
                       "_" + workload::workloadName(info.param.workload);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            c = '_';
    }
    return name;
}

/**
 * Run @p workload (2 threads x 25 tx, @p seed) on @p cfg, crash after
 * @p crash_events events, recover, and check the media against the
 * oracle — and the checker's verdict when cfg.checker is on.
 */
void
checkCrashAt(SimConfig cfg, workload::WorkloadKind workload,
             std::uint64_t crash_events, std::uint64_t seed)
{
    workload::TraceGenConfig tg;
    tg.kind = workload;
    tg.numThreads = 2;
    tg.transactionsPerThread = 25;
    tg.seed = seed;
    auto traces = workload::generateTraces(tg);

    cfg.numCores = 2;
    // A small log buffer provokes Silo overflow paths too.
    cfg.logBufferEntries = 12;

    System sys(cfg, traces);
    bool more = sys.runEvents(crash_events);
    sys.crash();
    sys.recover();

    // Oracle: initial image + all stores of durably committed
    // transactions, in trace order per thread.
    WordStore expected = committedPrefixImage(sys, traces);

    std::uint64_t checked = 0;
    for (const auto &[addr, value] : expected) {
        ASSERT_EQ(sys.pm().media().load(addr), value)
            << "addr 0x" << std::hex << addr << std::dec
            << " after crash at " << crash_events << " events"
            << " (committed: t0="
            << sys.coreAt(0).committedTx() << ", t1="
            << sys.coreAt(1).committedTx() << ")";
        ++checked;
    }
    EXPECT_GT(checked, 0u);
    if (cfg.checker) {
        std::ostringstream report;
        sys.checker()->report(report);
        EXPECT_TRUE(sys.checker()->clean())
            << "crash at " << crash_events << " events:\n"
            << report.str();
    }
    (void)more;
}

class CrashRecovery : public ::testing::TestWithParam<CrashCase>
{
  protected:
    /** Crash after @p crash_events events and check the oracle. */
    void
    crashAndCheck(std::uint64_t crash_events, std::uint64_t seed)
    {
        SimConfig cfg;
        cfg.scheme = GetParam().scheme;
        checkCrashAt(cfg, GetParam().workload, crash_events, seed);
    }
};

TEST_P(CrashRecovery, EarlyCrash)
{
    crashAndCheck(200, 3);
}

TEST_P(CrashRecovery, MidCrash)
{
    crashAndCheck(5000, 4);
}

TEST_P(CrashRecovery, LateCrash)
{
    crashAndCheck(40000, 5);
}

TEST_P(CrashRecovery, SweepOfCrashPoints)
{
    // Odd, prime-ish offsets to land in varied micro-states.
    for (std::uint64_t k : {97u, 503u, 1999u, 7919u, 17389u})
        crashAndCheck(k, 6);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrashRecovery,
    ::testing::Values(
        CrashCase{SchemeKind::Base, workload::WorkloadKind::Bank},
        CrashCase{SchemeKind::Base, workload::WorkloadKind::Hash},
        CrashCase{SchemeKind::Fwb, workload::WorkloadKind::Bank},
        CrashCase{SchemeKind::Fwb, workload::WorkloadKind::Hash},
        CrashCase{SchemeKind::MorLog, workload::WorkloadKind::Bank},
        CrashCase{SchemeKind::MorLog, workload::WorkloadKind::Hash},
        CrashCase{SchemeKind::Lad, workload::WorkloadKind::Bank},
        CrashCase{SchemeKind::Lad, workload::WorkloadKind::Hash},
        CrashCase{SchemeKind::Silo, workload::WorkloadKind::Bank},
        CrashCase{SchemeKind::Silo, workload::WorkloadKind::Hash},
        CrashCase{SchemeKind::Silo, workload::WorkloadKind::Btree},
        CrashCase{SchemeKind::Silo, workload::WorkloadKind::Queue},
        CrashCase{SchemeKind::Silo, workload::WorkloadKind::Tpcc},
        CrashCase{SchemeKind::Silo, workload::WorkloadKind::RBtree},
        CrashCase{SchemeKind::SwEadr, workload::WorkloadKind::Bank},
        CrashCase{SchemeKind::SwEadr, workload::WorkloadKind::Hash}),
    caseName);

TEST(CrashSemantics, CommitMarkerInAdrLogPathCommits)
{
    // A 4-entry WPQ keeps commit markers waiting for a slot in the
    // MC's ADR log path, where they are already durable: a crash there
    // commits the transaction although its Tx_end never completed, so
    // the oracle and the checker must count it as committed. One
    // forward run per scheme sweeps crash points 60-160; at each, the
    // oracle of the live System (stopped at that event) must match the
    // recovered copy.
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 2;
    tg.transactionsPerThread = 25;
    tg.seed = 5;
    auto traces = workload::generateTraces(tg);
    for (SchemeKind scheme : {SchemeKind::Base, SchemeKind::MorLog}) {
        SimConfig cfg;
        cfg.scheme = scheme;
        cfg.numCores = 2;
        cfg.logBufferEntries = 12;
        cfg.wpqEntries = 4;
        cfg.checker = true;
        System sys(cfg, traces);
        std::uint64_t swept = 0;
        sweepCrashes(sys, 1, [&](std::uint64_t k, const DomainCopy &copy) {
            if (k < 60)
                return true;
            std::string at = std::string(schemeName(scheme)) +
                             " crash at " + std::to_string(k);
            WordStore expected = committedPrefixImage(sys, traces);
            for (const auto &[addr, value] : expected) {
                if (copy.domain.media.load(addr) != value) {
                    ADD_FAILURE()
                        << at << ": addr 0x" << std::hex << addr
                        << std::dec << " (committed: t0="
                        << sys.coreAt(0).committedTx()
                        << ", t1=" << sys.coreAt(1).committedTx() << ")";
                    return false;
                }
            }
            std::ostringstream report;
            copy.checker->report(report);
            EXPECT_TRUE(copy.checker->clean()) << at << ":\n"
                                               << report.str();
            ++swept;
            return k < 160;
        });
        EXPECT_EQ(swept, 101u) << schemeName(scheme);
        // Ending the copies at 160 does not end the run.
        EXPECT_EQ(sys.report().committedTransactions, 2u * 25);
    }
}

TEST(CrashSemantics, CrashAfterFullRunPreservesEverything)
{
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 1;
    tg.transactionsPerThread = 30;
    auto traces = workload::generateTraces(tg);

    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = SchemeKind::Silo;
    System sys(cfg, traces);
    sys.run();
    sys.crash();
    sys.recover();

    for (const auto &[addr, value] : traces.finalMemory)
        ASSERT_EQ(sys.pm().media().load(addr), value);
}

TEST(CrashSemantics, RecoverWithoutCrashPanics)
{
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 1;
    tg.transactionsPerThread = 1;
    auto traces = workload::generateTraces(tg);
    SimConfig cfg;
    cfg.numCores = 1;
    System sys(cfg, traces);
    EXPECT_THROW(sys.recover(), PanicError);
}

TEST(CrashSemantics, DoubleCrashPanics)
{
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 1;
    tg.transactionsPerThread = 1;
    auto traces = workload::generateTraces(tg);
    SimConfig cfg;
    cfg.numCores = 1;
    System sys(cfg, traces);
    sys.runEvents(10);
    sys.crash();
    EXPECT_THROW(sys.crash(), PanicError);
}

} // namespace
} // namespace silo::harness
