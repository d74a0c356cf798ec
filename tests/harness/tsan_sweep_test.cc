/**
 * @file
 * ThreadSanitizer gate for the parallel sweep engine and the stats
 * registry. Built against a TSan-instrumented copy of the library
 * (`silo_tsan` in tests/CMakeLists.txt) and registered as the tier-1
 * `tsan_sweep` ctest with SILO_JOBS=8 in the environment, this runs a
 * real (scheme × workload) matrix — trace pre-generation, the
 * work-stealing fan-out, per-cell System/stats construction, progress
 * accounting and JSON serialization — so any data race in the engine
 * fails the pre-commit gate with a TSan report instead of surfacing
 * as a once-a-month flaky digest mismatch.
 *
 * The byte-identity assertion doubles as a determinism check under
 * instrumentation: TSan's scheduler perturbation is exactly the kind
 * of timing shift that would expose completion-order leakage. A short
 * litmus campaign covers the fuzzer's own fan-out the same way.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/campaign.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace silo::harness
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** 3 schemes x 3 workloads: enough cells to keep 8 workers busy. */
std::vector<CellSpec>
raceMatrix()
{
    constexpr SchemeKind schemes[] = {
        SchemeKind::Silo, SchemeKind::Base, SchemeKind::Lad};
    constexpr workload::WorkloadKind workloads[] = {
        workload::WorkloadKind::Hash, workload::WorkloadKind::Array,
        workload::WorkloadKind::Queue};
    std::vector<CellSpec> specs;
    for (auto scheme : schemes) {
        for (auto wl : workloads) {
            CellSpec spec;
            spec.trace.kind = wl;
            spec.trace.numThreads = 2;
            spec.trace.transactionsPerThread = 15;
            spec.sim.numCores = 2;
            spec.sim.scheme = scheme;
            spec.label = std::string(schemeName(scheme)) + "/" +
                         workload::workloadName(wl);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

TEST(TsanSweep, ParallelSweepRunsRaceFreeAndStaysDeterministic)
{
    // jobs = 0 defers to $SILO_JOBS — the ctest wrapper sets 8, so
    // the work-stealing pool really contends under TSan. Parallel
    // trace generation happens here too (9 cells, 3 unique configs).
    Sweep parallel({.jobs = 0, .progress = false});
    for (auto &spec : raceMatrix())
        parallel.add(spec);
    EXPECT_GE(parallel.jobs(), 2u)
        << "tsan_sweep must run with parallel workers (SILO_JOBS)";
    parallel.run();

    Sweep serial({.jobs = 1, .progress = false});
    for (auto &spec : raceMatrix())
        serial.add(spec);
    serial.run();

    ASSERT_EQ(parallel.results().size(), serial.results().size());
    for (std::size_t i = 0; i < serial.results().size(); ++i) {
        SCOPED_TRACE(serial.specs()[i].label);
        EXPECT_EQ(serial.results()[i].report.committedTransactions,
                  2u * 15);
        // The stats registry ran on worker threads: every cell must
        // carry its own complete silo-stats-v1 document.
        EXPECT_NE(parallel.results()[i].report.statsJson.find(
                      "\"schema\": \"silo-stats-v1\""),
                  std::string::npos);
        EXPECT_EQ(parallel.results()[i].report.statsJson,
                  serial.results()[i].report.statsJson);
    }

    std::string parallel_json =
        ::testing::TempDir() + "tsan_sweep_parallel.json";
    std::string serial_json =
        ::testing::TempDir() + "tsan_sweep_serial.json";
    parallel.writeJson(parallel_json, "tsan_sweep");
    serial.writeJson(serial_json, "tsan_sweep");
    std::string a = slurp(parallel_json);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(serial_json))
        << "TSan-instrumented parallel JSON diverged from serial";
}

TEST(TsanSweep, FuzzCampaignFansOutRaceFree)
{
    // One program on all six schemes, crashed at every other event:
    // phase A and phase B each fan out over $SILO_JOBS workers that
    // share the program's compiled traces read-only.
    fuzz::FuzzOptions opts;
    opts.seed = 11;
    opts.maxPrograms = 1;
    opts.crashStride = 2;
    EXPECT_GE(Sweep::defaultJobs(), 2u)
        << "tsan_sweep must run with parallel workers (SILO_JOBS)";
    fuzz::FuzzCampaignResult parallel = fuzz::runFuzzCampaign(opts);
    EXPECT_EQ(parallel.programsRun, 1u);
    EXPECT_GT(parallel.crashCases, 0u);
    for (const auto &f : parallel.findings)
        ADD_FAILURE() << "unexpected violation: " << f.original.toJson();

    const std::string saved = envStrOr("SILO_JOBS", "");
    ASSERT_EQ(setenv("SILO_JOBS", "1", 1), 0);   // NOLINT(concurrency-mt-unsafe)
    fuzz::FuzzCampaignResult serial = fuzz::runFuzzCampaign(opts);
    if (saved.empty())
        unsetenv("SILO_JOBS");   // NOLINT(concurrency-mt-unsafe)
    else
        setenv("SILO_JOBS", saved.c_str(), 1);   // NOLINT(concurrency-mt-unsafe)
    EXPECT_EQ(parallel.summaryJson(opts), serial.summaryJson(opts));
}

} // namespace
} // namespace silo::harness
