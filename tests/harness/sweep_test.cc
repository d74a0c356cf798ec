/**
 * @file
 * The sweep engine's determinism contract: a parallel run must be
 * indistinguishable from a serial run — every SimReport field equal,
 * results in spec order regardless of completion order (proved with
 * an adversarial per-cell sleep), the JSON output byte-identical —
 * and the trace cache must generate each unique TraceGenConfig
 * exactly once, sharing one trace object between cells.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness/sweep.hh"
#include "sim/sha256.hh"

namespace silo::harness
{
namespace
{

/** A small 2-scheme x 3-workload matrix (cheap but non-trivial). */
std::vector<CellSpec>
smallMatrix()
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
            spec.trace.transactionsPerThread = 20;
            spec.sim.numCores = 2;
            spec.sim.scheme = scheme;
            spec.label = std::string(schemeName(scheme)) + "/" +
                         workload::workloadName(wl);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

void
expectReportsEqual(const SimReport &a, const SimReport &b,
                   const std::string &label)
{
    EXPECT_EQ(a.committedTransactions, b.committedTransactions)
        << label;
    EXPECT_EQ(a.ticks, b.ticks) << label;
    EXPECT_EQ(a.txPerMillionCycles, b.txPerMillionCycles) << label;
    EXPECT_EQ(a.mediaWordWrites, b.mediaWordWrites) << label;
    EXPECT_EQ(a.mediaLineWrites, b.mediaLineWrites) << label;
    EXPECT_EQ(a.dataRegionWordWrites, b.dataRegionWordWrites) << label;
    EXPECT_EQ(a.logRegionWordWrites, b.logRegionWordWrites) << label;
    EXPECT_EQ(a.logRecordsWritten, b.logRecordsWritten) << label;
    EXPECT_EQ(a.commitStallCycles, b.commitStallCycles) << label;
    EXPECT_EQ(a.storeStallCycles, b.storeStallCycles) << label;
    EXPECT_EQ(a.wpqFullStalls, b.wpqFullStalls) << label;
    EXPECT_EQ(a.wpqAcceptedWrites, b.wpqAcceptedWrites) << label;
    EXPECT_EQ(a.wpqAcceptedBytes, b.wpqAcceptedBytes) << label;
    EXPECT_EQ(a.statsJson, b.statsJson) << label;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(SweepDeterminism, SerialAndParallelReportsIdentical)
{
    Sweep serial({.jobs = 1, .progress = false});
    Sweep parallel({.jobs = 8, .progress = false});
    for (auto &spec : smallMatrix())
        serial.add(spec);
    for (auto &spec : smallMatrix())
        parallel.add(spec);

    serial.run();
    parallel.run();
    ASSERT_EQ(serial.results().size(), parallel.results().size());
    for (std::size_t i = 0; i < serial.results().size(); ++i) {
        SCOPED_TRACE(serial.specs()[i].label);
        // Sanity: the cells did real work.
        EXPECT_EQ(serial.results()[i].report.committedTransactions,
                  2u * 20);
        expectReportsEqual(serial.results()[i].report,
                           parallel.results()[i].report,
                           serial.specs()[i].label);
    }

    std::string serial_json =
        ::testing::TempDir() + "sweep_serial.json";
    std::string parallel_json =
        ::testing::TempDir() + "sweep_parallel.json";
    serial.writeJson(serial_json, "sweep_test");
    parallel.writeJson(parallel_json, "sweep_test");
    std::string a = slurp(serial_json);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(parallel_json))
        << "serial and parallel JSON must be byte-identical";
}

TEST(SweepDeterminism, ResultOrderMatchesSpecOrderUnderAdversarialSleep)
{
    // Give every cell a distinguishable report (different tx count)
    // and delay earlier cells the most, so completion order is the
    // reverse of spec order.
    constexpr std::size_t n = 6;
    Sweep sweep({.jobs = unsigned(n), .progress = false});
    for (std::size_t i = 0; i < n; ++i) {
        CellSpec spec;
        spec.trace.kind = workload::WorkloadKind::Array;
        spec.trace.numThreads = 1;
        spec.trace.transactionsPerThread = 5 + i;
        spec.sim.numCores = 1;
        spec.sim.scheme = SchemeKind::Silo;
        spec.label = "cell" + std::to_string(i);
        sweep.add(std::move(spec));
    }
    sweep.setTestHooks({.onCellStart = [](std::size_t index) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20 * (5 - index)));
    }});

    sweep.run();
    ASSERT_EQ(sweep.results().size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sweep.results()[i].report.committedTransactions,
                  5 + i)
            << "result slot " << i
            << " does not hold the cell added " << i << "th";
    }
}

TEST(SweepTraceCache, SharedConfigIsGeneratedOnceAndPointerShared)
{
    Sweep sweep({.jobs = 4, .progress = false});
    workload::TraceGenConfig shared;
    shared.kind = workload::WorkloadKind::Hash;
    shared.numThreads = 2;
    shared.transactionsPerThread = 15;

    CellSpec a;
    a.trace = shared;
    a.sim.numCores = 2;
    a.sim.scheme = SchemeKind::Silo;
    a.label = "silo";
    CellSpec b;
    b.trace = shared;
    b.sim.numCores = 2;
    b.sim.scheme = SchemeKind::Base;
    b.label = "base";
    CellSpec c;
    c.trace = shared;
    c.trace.seed = shared.seed + 1;   // unique config
    c.sim.numCores = 2;
    c.sim.scheme = SchemeKind::Silo;
    c.label = "silo-reseeded";
    sweep.add(std::move(a));
    sweep.add(std::move(b));
    sweep.add(std::move(c));

    sweep.run();
    ASSERT_EQ(sweep.results().size(), 3u);
    EXPECT_NE(sweep.results()[0].traces, nullptr);
    EXPECT_EQ(sweep.results()[0].traces, sweep.results()[1].traces)
        << "cells sharing a TraceGenConfig must observe the same "
           "trace object";
    EXPECT_NE(sweep.results()[0].traces, sweep.results()[2].traces);
    EXPECT_EQ(sweep.traceCache().generationCount(), 2u)
        << "the engine must generate each unique config exactly once";
}

TEST(SweepStats, StatsJsonEmbeddedPerCell)
{
    Sweep sweep({.jobs = 2, .progress = false});
    for (auto &spec : smallMatrix())
        sweep.add(spec);
    sweep.run();
    for (const auto &r : sweep.results()) {
        EXPECT_NE(r.report.statsJson.find(
                      "\"schema\": \"silo-stats-v1\""),
                  std::string::npos);
    }

    std::string path = ::testing::TempDir() + "sweep_stats.json";
    sweep.writeJson(path, "sweep_test");
    std::string json = slurp(path);
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"stats\": {"), std::string::npos);
}

TEST(SweepStats, LogLifecycleEnvReachesBenchCells)
{
    // The sweep engine is where the benches read SILO_LOG_*: a cell
    // run with SILO_LOG_SEGMENTED=1 builds the lifecycle engine, whose
    // stat group exists only when segmentation is on.
    const std::string saved = envStrOr("SILO_LOG_SEGMENTED", "");
    ASSERT_EQ(setenv("SILO_LOG_SEGMENTED", "1", 1), 0);   // NOLINT(concurrency-mt-unsafe)
    Sweep sweep({.jobs = 1, .progress = false});
    sweep.add(smallMatrix().front());
    sweep.run();
    if (saved.empty())
        unsetenv("SILO_LOG_SEGMENTED");   // NOLINT(concurrency-mt-unsafe)
    else
        setenv("SILO_LOG_SEGMENTED", saved.c_str(), 1);   // NOLINT(concurrency-mt-unsafe)

    ASSERT_EQ(sweep.results().size(), 1u);
    EXPECT_NE(sweep.results()[0].report.statsJson.find(
                  "\"log_lifecycle\""),
              std::string::npos);
}

TEST(TracePath, InsertsCellCoordinatesBeforeExtension)
{
    CellSpec spec;
    spec.sim.scheme = SchemeKind::Silo;
    spec.sim.numCores = 4;
    spec.trace.kind = workload::WorkloadKind::Hash;
    EXPECT_EQ(tracePathFor("/tmp/t/trace.json", spec),
              "/tmp/t/trace-Silo-Hash-4c.json");
    EXPECT_EQ(tracePathFor("trace", spec), "trace-Silo-Hash-4c.json");
}

/**
 * Golden determinism regression (the hot-path rewrite's proof
 * obligation, and a tripwire for every future change): the results
 * JSON of a fixed small matrix must match a checked-in golden file —
 * and its checked-in SHA-256 — exactly, under both SILO_JOBS=1 and 8.
 * Any change that perturbs simulated-time results fails here with a
 * line-level diff instead of silently shifting figures.
 *
 * To update after an *intentional* simulation change:
 *   SILO_UPDATE_GOLDEN=1 ./build/tests/sweep_test \
 *       --gtest_filter='SweepGolden.*'
 * then commit the regenerated golden files with an explanation.
 */
TEST(SweepGolden, ResultsJsonMatchesCheckedInDigest)
{
    const std::string golden_path =
        std::string(SILO_TEST_DIR) + "/harness/golden/sweep_small.json";
    const std::string digest_path = golden_path + ".sha256";

    std::string json;
    for (unsigned jobs : {1u, 8u}) {
        Sweep sweep({.jobs = jobs, .progress = false});
        for (auto &spec : smallMatrix())
            sweep.add(spec);
        sweep.run();
        std::string path = ::testing::TempDir() + "sweep_golden_" +
                           std::to_string(jobs) + ".json";
        sweep.writeJson(path, "sweep_golden");
        std::string got = slurp(path);
        ASSERT_FALSE(got.empty());
        if (json.empty())
            json = got;
        else
            ASSERT_EQ(json, got) << "jobs=" << jobs
                                 << " diverged from jobs=1";
    }

    if (!envStrOr("SILO_UPDATE_GOLDEN", "").empty()) {
        std::ofstream(golden_path, std::ios::binary) << json;
        std::ofstream(digest_path, std::ios::binary)
            << sha256Hex(json) << "\n";
        GTEST_SKIP() << "golden files regenerated at " << golden_path;
    }

    std::string golden = slurp(golden_path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << golden_path
        << " (regenerate with SILO_UPDATE_GOLDEN=1)";
    std::string want_digest = slurp(digest_path);
    while (!want_digest.empty() &&
           (want_digest.back() == '\n' || want_digest.back() == '\r'))
        want_digest.pop_back();
    EXPECT_EQ(sha256Hex(golden), want_digest)
        << "golden file and its .sha256 are out of sync";

    if (json != golden) {
        // Readable failure: name the first differing line.
        std::istringstream got_s(json), want_s(golden);
        std::string got_line, want_line;
        std::size_t line = 0;
        while (true) {
            ++line;
            bool got_ok = bool(std::getline(got_s, got_line));
            bool want_ok = bool(std::getline(want_s, want_line));
            if (!got_ok && !want_ok)
                break;
            if (got_line != want_line || got_ok != want_ok) {
                FAIL() << "results JSON diverges from " << golden_path
                       << " at line " << line << "\n  golden: "
                       << (want_ok ? want_line : "<eof>")
                       << "\n  actual: "
                       << (got_ok ? got_line : "<eof>")
                       << "\nIf the simulation change is intentional, "
                          "regenerate with SILO_UPDATE_GOLDEN=1.";
            }
        }
    }
    EXPECT_EQ(sha256Hex(json), want_digest);
}

TEST(SweepGolden, Sha256KnownVectors)
{
    // FIPS 180-4 test vectors, so a broken hash cannot silently
    // "match" a stale digest file.
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                  "ijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039"
        "a33ce45964ff2167f6ecedd419db06c1");
    // Multi-block + length padding edge (55/56/64-byte boundaries).
    EXPECT_EQ(sha256Hex(std::string(56, 'a')),
              "b35439a4ac6f0948b6d6f9e3c6af0f5f"
              "590ce20f1bde7090ef7970686ec6738a");
    EXPECT_EQ(sha256Hex(std::string(64, 'a')),
              "ffe054fe7ae0cb6dc65c3af9b61d5209"
              "f439851db43d0ba5997337df154668eb");
    EXPECT_EQ(sha256Hex(std::string(1000, 'x')),
              sha256Hex(std::string(1000, 'x')));
}

TEST(SweepTraceCache, RerunGeneratesNothingNew)
{
    Sweep sweep({.jobs = 2, .progress = false});
    for (auto &spec : smallMatrix())
        sweep.add(spec);
    sweep.run();
    std::uint64_t after_first = sweep.traceCache().generationCount();
    EXPECT_EQ(after_first, 3u);   // three workloads, schemes share
    sweep.run();
    EXPECT_EQ(sweep.traceCache().generationCount(), after_first);
}

} // namespace
} // namespace silo::harness
