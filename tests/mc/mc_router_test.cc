/**
 * @file
 * Tests for multi-memory-controller routing (§III-D): one thread's
 * data and logs land on the same controller, the system runs and
 * recovers correctly with several MCs, and results match the
 * single-MC configuration functionally.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "mc/mc_router.hh"
#include "workload/trace_gen.hh"

namespace silo::mc
{
namespace
{

TEST(McRouter, SingleControllerPassThrough)
{
    SimConfig cfg;
    EventQueue eq;
    log::LogRegionStore logs(4);
    nvm::PmDevice pm(eq, cfg);
    McRouter router(eq, cfg, pm, logs);
    EXPECT_EQ(router.numControllers(), 1u);
    EXPECT_EQ(&router.controllerFor(addr_map::dataArenaBase(0)),
              &router.controllerFor(addr_map::dataArenaBase(3)));
}

TEST(McRouter, ThreadDataAndLogsShareAController)
{
    SimConfig cfg;
    cfg.numMemControllers = 4;
    EventQueue eq;
    log::LogRegionStore logs(8);
    nvm::PmDevice pm(eq, cfg);
    McRouter router(eq, cfg, pm, logs);
    ASSERT_EQ(router.numControllers(), 4u);

    for (unsigned tid = 0; tid < 8; ++tid) {
        auto &data_mc =
            router.controllerFor(addr_map::dataArenaBase(tid) + 0x40);
        auto &log_mc =
            router.controllerFor(addr_map::logAreaBase(tid) + 26);
        EXPECT_EQ(&data_mc, &log_mc) << "tid " << tid;
    }
    // Different threads spread over the controllers.
    EXPECT_NE(&router.controllerFor(addr_map::dataArenaBase(0)),
              &router.controllerFor(addr_map::dataArenaBase(1)));
}

TEST(McRouter, WritesLandOnTheRoutedController)
{
    SimConfig cfg;
    cfg.numMemControllers = 2;
    EventQueue eq;
    log::LogRegionStore logs(4);
    nvm::PmDevice pm(eq, cfg);
    McRouter router(eq, cfg, pm, logs);

    unsigned accepted = 0;
    router.writeWord(addr_map::dataArenaBase(0), 1, [&] { ++accepted; });
    router.writeWord(addr_map::dataArenaBase(1), 2, [&] { ++accepted; });
    ASSERT_EQ(accepted, 2u);
    EXPECT_EQ(router.controllerAt(0).acceptedWrites() +
                  router.controllerAt(1).acceptedWrites(),
              2u);
    EXPECT_EQ(router.controllerAt(0).acceptedWrites(), 1u);
    EXPECT_EQ(router.controllerAt(1).acceptedWrites(), 1u);
}

class MultiMcSystem : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(MultiMcSystem, RunsAndMatchesFunctionalImage)
{
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Hash;
    tg.numThreads = 4;
    tg.transactionsPerThread = 30;
    auto traces = workload::generateTraces(tg);

    SimConfig cfg;
    cfg.numCores = 4;
    cfg.numMemControllers = 2;
    cfg.scheme = GetParam();
    harness::System sys(cfg, traces);
    sys.run();
    EXPECT_EQ(sys.report().committedTransactions, 4u * 30);
    sys.settle();
    sys.drainToMedia();
    for (const auto &[addr, value] : traces.finalMemory)
        ASSERT_EQ(sys.pm().media().load(addr), value);
}

TEST_P(MultiMcSystem, CrashRecoveryHoldsWithTwoControllers)
{
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 4;
    tg.transactionsPerThread = 25;
    tg.seed = 9;
    auto traces = workload::generateTraces(tg);

    SimConfig cfg;
    cfg.numCores = 4;
    cfg.numMemControllers = 2;
    cfg.scheme = GetParam();
    harness::System sys(cfg, traces);
    sys.runEvents(4000);
    sys.crash();
    sys.recover();

    WordStore expected = harness::committedPrefixImage(sys, traces);
    for (const auto &[addr, value] : expected)
        ASSERT_EQ(sys.pm().media().load(addr), value)
            << "addr 0x" << std::hex << addr;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MultiMcSystem,
    ::testing::Values(SchemeKind::Base, SchemeKind::MorLog,
                      SchemeKind::Lad, SchemeKind::Silo),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(schemeName(info.param));
    });

} // namespace
} // namespace silo::mc
