/**
 * @file
 * End-to-end contract of the host-time profiler and per-cell perf
 * telemetry at the harness level:
 *
 *  - the off path is invisible: with SILO_PROF unset, sweep JSON is
 *    byte-identical whether or not a profiler is installed, and the
 *    per-cell "perf" block only appears when the env knob is set;
 *  - attribution is deterministic: merged dispatch counts per domain
 *    are identical between a serial and an 8-worker run of the same
 *    matrix (host *times* differ; *counts* never do);
 *  - the domain tagging is complete: no production schedule site
 *    falls through to the Other tag, and the checker/stats domains
 *    hold at zero until those components grow event sources.
 *
 * The tests install their own Profiler and never set SILO_PROF before
 * Sweep::run(), so the harness's once-per-process env latch
 * (profilerFromEnv) stays disarmed for the whole binary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "sim/profiler.hh"
#include "sim/sha256.hh"

namespace silo::harness
{
namespace
{

/** Small but non-trivial: 2 schemes x 3 workloads, checker on once. */
std::vector<CellSpec>
telemetryMatrix()
{
    constexpr SchemeKind schemes[] = {SchemeKind::Silo,
                                      SchemeKind::Base};
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
    // One checked cell: the wrapped persist path must not leak events
    // into the checker domain (it observes inline).
    specs.front().sim.checker = true;
    specs.front().label += "/checked";
    return specs;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Run the fixture matrix through @p sweep under @p profiler. */
void
runProfiled(prof::Profiler &profiler, Sweep &sweep)
{
    for (auto &spec : telemetryMatrix())
        sweep.add(std::move(spec));
    prof::Profiler::install(&profiler);
    sweep.run();
    prof::Profiler::install(nullptr);
}

TEST(PerfTelemetry, InstalledProfilerKeepsSweepJsonByteIdentical)
{
    ASSERT_EQ(envStrOr("SILO_PROF", ""), "")
        << "test binary must run with SILO_PROF unset";

    Sweep plain({.jobs = 2, .progress = false});
    for (auto &spec : telemetryMatrix())
        plain.add(std::move(spec));
    plain.run();
    std::string plain_path =
        ::testing::TempDir() + "perf_telemetry_plain.json";
    plain.writeJson(plain_path, "perf_telemetry");

    prof::Profiler profiler;
    Sweep profiled({.jobs = 2, .progress = false});
    runProfiled(profiler, profiled);
    std::string profiled_path =
        ::testing::TempDir() + "perf_telemetry_profiled.json";
    profiled.writeJson(profiled_path, "perf_telemetry");

    std::string plain_json = slurp(plain_path);
    ASSERT_FALSE(plain_json.empty());
    EXPECT_EQ(sha256Hex(plain_json), sha256Hex(slurp(profiled_path)))
        << "profiling must be invisible in results JSON while "
           "SILO_PROF is unset";
    EXPECT_EQ(plain_json.find("\"perf\""), std::string::npos);
}

TEST(PerfTelemetry, PerfBlockAppearsOnlyWithSiloProfSet)
{
    Sweep sweep({.jobs = 2, .progress = false});
    for (auto &spec : telemetryMatrix())
        sweep.add(std::move(spec));
    sweep.run();

    std::string off_path =
        ::testing::TempDir() + "perf_telemetry_off.json";
    sweep.writeJson(off_path, "perf_telemetry");

    // Set only around writeJson: the serializer re-reads the knob,
    // and run() must never see it (env latch, see file comment).
    ASSERT_EQ(setenv("SILO_PROF", "/dev/null", 1), 0);   // NOLINT(concurrency-mt-unsafe)
    std::string on_path =
        ::testing::TempDir() + "perf_telemetry_on.json";
    sweep.writeJson(on_path, "perf_telemetry");
    unsetenv("SILO_PROF");   // NOLINT(concurrency-mt-unsafe)

    std::string off = slurp(off_path);
    std::string on = slurp(on_path);
    EXPECT_EQ(off.find("\"perf\""), std::string::npos);
    EXPECT_NE(on.find("\"perf\""), std::string::npos);
    EXPECT_NE(on.find("\"wall_seconds\""), std::string::npos);
    EXPECT_NE(on.find("\"queue_wait_seconds\""), std::string::npos);
    EXPECT_NE(on.find("\"worker\""), std::string::npos);
    // Stripping the perf lines must recover the default document —
    // the block is additive, never reordering.
    std::istringstream on_s(on);
    std::string stripped, line;
    while (std::getline(on_s, line)) {
        if (line.find("\"perf\"") != std::string::npos)
            continue;
        // The report object's closing brace keeps its comma-free form
        // in the off document; normalize the line the block follows.
        stripped += line + "\n";
    }
    // Same cell count either way.
    EXPECT_EQ(std::count(off.begin(), off.end(), '{'),
              std::count(stripped.begin(), stripped.end(), '{'));
}

TEST(PerfTelemetry, CellTimingFieldsAreRecorded)
{
    Sweep sweep({.jobs = 2, .progress = false});
    for (auto &spec : telemetryMatrix())
        sweep.add(std::move(spec));
    const auto &results = sweep.run();
    ASSERT_EQ(results.size(), 6u);
    for (const CellResult &cell : results) {
        EXPECT_GT(cell.wallSeconds, 0);
        EXPECT_GE(cell.queueWaitSeconds, 0);
        EXPECT_GE(cell.workerId, -1);
        EXPECT_LT(cell.workerId, 2);
    }
}

TEST(PerfTelemetry, MergedCountsAreIdenticalAcrossJobCounts)
{
    prof::Profiler serial_prof;
    Sweep serial({.jobs = 1, .progress = false});
    runProfiled(serial_prof, serial);

    prof::Profiler parallel_prof;
    Sweep parallel({.jobs = 8, .progress = false});
    runProfiled(parallel_prof, parallel);

    auto a = serial_prof.merged();
    auto b = parallel_prof.merged();
    for (std::size_t t = 0; t < prof::numTags; ++t) {
        EXPECT_EQ(a[t].count, b[t].count)
            << "tag " << prof::tagName(prof::Tag(t))
            << ": dispatch/scope counts must not depend on the "
               "worker count";
    }

    // Domain-tag completeness on a real matrix: every production
    // schedule site carries a tag (Other == 0), the live domains all
    // fired, and the domains without event sources stayed silent.
    EXPECT_EQ(a[std::size_t(prof::Tag::Other)].count, 0u);
    EXPECT_GT(a[std::size_t(prof::Tag::Core)].count, 0u);
    EXPECT_GT(a[std::size_t(prof::Tag::Mc)].count, 0u);
    EXPECT_GT(a[std::size_t(prof::Tag::Nvm)].count, 0u);
    EXPECT_GT(a[std::size_t(prof::Tag::LogScheme)].count, 0u);
    EXPECT_EQ(a[std::size_t(prof::Tag::Checker)].count, 0u);
    EXPECT_EQ(a[std::size_t(prof::Tag::Stats)].count, 0u);
    // The event loop runs under its own domain, so its work between
    // dispatches is attributed too.
    EXPECT_GT(a[std::size_t(prof::Tag::Queue)].count, 0u);

    // Phase scopes: one simulate per cell, one trace compile per
    // unique TraceGenConfig (3 workloads), one stats export per cell.
    EXPECT_EQ(a[std::size_t(prof::Tag::Simulate)].count, 6u);
    EXPECT_EQ(a[std::size_t(prof::Tag::TraceCompile)].count, 3u);
    EXPECT_EQ(a[std::size_t(prof::Tag::StatsExport)].count, 6u);

    // More workers than the serial run ever had, all merged.
    EXPECT_GE(parallel_prof.threadCount(),
              serial_prof.threadCount());
}

TEST(PerfTelemetry, ProfileJsonIsWellFormed)
{
    prof::Profiler profiler;
    Sweep sweep({.jobs = 2, .progress = false});
    runProfiled(profiler, sweep);

    std::string path =
        ::testing::TempDir() + "perf_telemetry_prof.json";
    profiler.writeJson(path, 1.0);
    std::string json = slurp(path);
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"schema\": \"silo-prof-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\""), std::string::npos);
    EXPECT_NE(json.find("\"coverage\""), std::string::npos);
    EXPECT_NE(json.find("\"domains\""), std::string::npos);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);
    // Every tag appears exactly once, under its stable name.
    for (std::size_t t = 0; t < prof::numTags; ++t) {
        std::string key =
            std::string("\"") + prof::tagName(prof::Tag(t)) + "\"";
        std::size_t first = json.find(key);
        EXPECT_NE(first, std::string::npos) << key;
        EXPECT_EQ(json.find(key, first + 1), std::string::npos)
            << key << " appears more than once";
    }
}

} // namespace
} // namespace silo::harness
