/**
 * @file
 * Property sweep over the configuration space: correctness (full
 * commit count and a media image equal to the functional execution)
 * must hold for every geometry, not just the Table II defaults —
 * tiny log buffers (constant Silo overflow), tiny WPQs (constant
 * back-pressure), fewer on-PM buffer lines (constant buffer
 * evictions), and multiple memory controllers.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "harness/sweep.hh"
#include "harness/system.hh"
#include "workload/trace_gen.hh"

namespace silo::harness
{
namespace
{

struct SweepPoint
{
    const char *label;
    unsigned logBufferEntries;
    unsigned wpqEntries;
    unsigned onPmBufferLines;
    unsigned numMemControllers;
};

constexpr SweepPoint sweepPoints[] = {
    {"defaults", 20, 64, 32, 1},
    {"tiny_log_buffer", 2, 64, 32, 1},
    {"huge_log_buffer", 512, 64, 32, 1},
    {"tiny_wpq", 20, 12, 32, 1},
    {"few_pm_buffer_lines", 20, 64, 8, 1},
    {"one_pm_buffer_line", 20, 64, 1, 1},
    {"two_mcs", 20, 64, 32, 2},
    {"stress_combo", 3, 12, 2, 2},
};

/**
 * gtest's fallback printer dumps the raw bytes, `label` pointer
 * included, and gtest_discover_tests folds that dump into the ctest
 * name — so the names changed with every ASLR layout. Print the
 * geometry instead, short enough to keep the names under 100 chars:
 * log-buffer entries / WPQ entries / on-PM line bytes x lines / MCs
 * (the line is always pmBufferLineBytes).
 */
void
PrintTo(const SweepPoint &pt, std::ostream *os)
{
    *os << pt.logBufferEntries << '/' << pt.wpqEntries << '/'
        << pmBufferLineBytes << 'x' << pt.onPmBufferLines << '/'
        << pt.numMemControllers;
}

class ConfigSweep : public ::testing::TestWithParam<SweepPoint>
{
};

TEST_P(ConfigSweep, SiloStaysCorrect)
{
    const SweepPoint &pt = GetParam();
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Hash;
    tg.numThreads = 2;
    tg.transactionsPerThread = 30;
    auto traces = workload::generateTraces(tg);

    SimConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = SchemeKind::Silo;
    cfg.logBufferEntries = pt.logBufferEntries;
    cfg.wpqEntries = pt.wpqEntries;
    cfg.onPmBufferLines = pt.onPmBufferLines;
    cfg.numMemControllers = pt.numMemControllers;

    System sys(cfg, traces);
    sys.run();
    EXPECT_EQ(sys.report().committedTransactions, 2u * 30) << pt.label;
    sys.settle();
    sys.drainToMedia();
    for (const auto &[addr, value] : traces.finalMemory) {
        ASSERT_EQ(sys.pm().media().load(addr), value)
            << pt.label << " addr 0x" << std::hex << addr;
    }
}

TEST_P(ConfigSweep, SiloCrashRecoveryStaysCorrect)
{
    const SweepPoint &pt = GetParam();
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 2;
    tg.transactionsPerThread = 25;
    tg.seed = 23;
    auto traces = workload::generateTraces(tg);

    SimConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = SchemeKind::Silo;
    cfg.logBufferEntries = pt.logBufferEntries;
    cfg.wpqEntries = pt.wpqEntries;
    cfg.onPmBufferLines = pt.onPmBufferLines;
    cfg.numMemControllers = pt.numMemControllers;

    System sys(cfg, traces);
    sys.runEvents(3000);
    sys.crash();
    sys.recover();

    WordStore expected = committedPrefixImage(sys, traces);
    for (const auto &[addr, value] : expected) {
        ASSERT_EQ(sys.pm().media().load(addr), value)
            << pt.label << " addr 0x" << std::hex << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, ConfigSweep, ::testing::ValuesIn(sweepPoints),
    [](const ::testing::TestParamInfo<SweepPoint> &info) {
        return info.param.label;
    });

/**
 * Seed-sensitivity regression: the seed must plumb through the sweep
 * engine's trace cache into generation — two seeds give two distinct
 * trace sets (different ops, different cache entries), yet both runs
 * stay fully correct and both crash-recover cleanly. Guards against a
 * future engine change collapsing or ignoring the seed.
 */
TEST(SeedSensitivity, DifferentSeedsDifferentTracesBothRecover)
{
    constexpr std::uint64_t seeds[] = {7, 8};

    Sweep sweep({.jobs = 2, .progress = false});
    for (std::uint64_t seed : seeds) {
        CellSpec spec;
        spec.trace.kind = workload::WorkloadKind::Bank;
        spec.trace.numThreads = 2;
        spec.trace.transactionsPerThread = 25;
        spec.trace.seed = seed;
        spec.sim.numCores = 2;
        spec.sim.scheme = SchemeKind::Silo;
        spec.label = "seed" + std::to_string(seed);
        sweep.add(std::move(spec));
    }
    sweep.run();

    // Two seeds -> two generated trace sets, not one shared object.
    EXPECT_EQ(sweep.traceCache().generationCount(), 2u);
    const auto *t0 = sweep.results()[0].traces;
    const auto *t1 = sweep.results()[1].traces;
    ASSERT_NE(t0, nullptr);
    ASSERT_NE(t0, t1);
    bool ops_differ = false;
    for (unsigned t = 0; t < 2 && !ops_differ; ++t) {
        const auto &a = t0->threads[t].ops;
        const auto &b = t1->threads[t].ops;
        if (a.size() != b.size()) {
            ops_differ = true;
            break;
        }
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i].kind != b[i].kind || a[i].addr != b[i].addr ||
                a[i].value != b[i].value) {
                ops_differ = true;
                break;
            }
        }
    }
    EXPECT_TRUE(ops_differ)
        << "different seeds produced identical operation streams";
    for (const auto &result : sweep.results())
        EXPECT_EQ(result.report.committedTransactions, 2u * 25);

    // Both seeds must also survive a mid-run crash + recovery.
    for (std::uint64_t seed : seeds) {
        workload::TraceGenConfig tg;
        tg.kind = workload::WorkloadKind::Bank;
        tg.numThreads = 2;
        tg.transactionsPerThread = 25;
        tg.seed = seed;
        auto traces = workload::generateTraces(tg);

        SimConfig cfg;
        cfg.numCores = 2;
        cfg.scheme = SchemeKind::Silo;
        System sys(cfg, traces);
        sys.runEvents(3000);
        sys.crash();
        sys.recover();

        WordStore expected = committedPrefixImage(sys, traces);
        for (const auto &[addr, value] : expected) {
            ASSERT_EQ(sys.pm().media().load(addr), value)
                << "seed " << seed << " addr 0x" << std::hex << addr;
        }
    }
}

} // namespace
} // namespace silo::harness
