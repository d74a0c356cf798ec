/**
 * @file
 * The umbrella header must be self-contained: a downstream user should
 * be able to include silo.hh alone and drive the whole documented
 * workflow from it.
 */

#include <gtest/gtest.h>

#include "silo.hh"

namespace
{

TEST(PublicApi, UmbrellaWorkflowCompilesAndRuns)
{
    silo::SimConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = silo::SchemeKind::Silo;

    silo::workload::TraceGenConfig tg;
    tg.kind = silo::workload::WorkloadKind::Bank;
    tg.numThreads = cfg.numCores;
    tg.transactionsPerThread = 20;
    auto traces = silo::workload::generateTraces(tg);

    silo::harness::System sys(cfg, traces);
    sys.finish();

    auto report = sys.report();
    EXPECT_EQ(report.committedTransactions, 40u);
    EXPECT_GT(report.txPerMillionCycles, 0.0);

    // The energy model is reachable from the umbrella too.
    auto battery = silo::energy::siloBattery(cfg);
    EXPECT_GT(battery.flushEnergyUj, 0.0);

    // And the experiment helpers.
    // silo-lint: allow(env-doc-parity) deliberately-unset synthetic knob probing the fallback path; not a real configuration variable
    EXPECT_EQ(silo::harness::envOr("SILO_SURELY_UNSET_KNOB", 7u), 7u);
}

TEST(PublicApi, SchemeAndWorkloadNamesRoundTrip)
{
    using silo::workload::workloadFromName;
    using silo::workload::workloadName;
    for (auto kind : silo::workload::allWorkloads)
        EXPECT_EQ(workloadFromName(workloadName(kind)), kind);
    EXPECT_THROW(workloadFromName("NotAWorkload"), silo::FatalError);
}

} // namespace
