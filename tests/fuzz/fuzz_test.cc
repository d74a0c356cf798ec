/**
 * @file
 * End-to-end tests of the litmus fuzz campaign: generator
 * well-formedness and determinism, the mutation self-test (a seeded
 * checker bug must be found and shrunk to a replayable reproducer),
 * and byte-for-byte reproducibility from the seed and across job
 * counts.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "fuzz/campaign.hh"
#include "fuzz/fuzz_runner.hh"
#include "fuzz/litmus_gen.hh"
#include "harness/experiment.hh"
#include "sim/rng.hh"

namespace silo::fuzz
{
namespace
{

using workload::LitmusProgram;
using workload::serializeLitmus;
using workload::validateLitmus;

TEST(LitmusGen, ProgramsAreValidAndDeterministic)
{
    Rng rng_a(42), rng_b(42), rng_c(43);
    LitmusGenConfig cfg;
    bool differs = false;
    for (unsigned i = 0; i < 20; ++i) {
        LitmusProgram a = generateLitmus(rng_a, cfg, "p");
        LitmusProgram b = generateLitmus(rng_b, cfg, "p");
        LitmusProgram c = generateLitmus(rng_c, cfg, "p");
        EXPECT_NO_THROW(validateLitmus(a));
        EXPECT_EQ(serializeLitmus(a), serializeLitmus(b))
            << "same seed must generate identical programs";
        differs |= serializeLitmus(a) != serializeLitmus(c);
        EXPECT_LE(a.threads.size(), cfg.maxThreads);
        EXPECT_GE(a.threads.size(), cfg.minThreads);
    }
    EXPECT_TRUE(differs) << "different seeds never diverged";
}

TEST(LitmusGen, RejectsInconsistentShape)
{
    Rng rng(1);
    LitmusGenConfig cfg;
    cfg.minThreads = 3;
    cfg.maxThreads = 2;
    EXPECT_THROW(generateLitmus(rng, cfg, "bad"), FatalError);
}

/**
 * The mutation self-test the whole fuzzer exists for: plant a seeded
 * checker-visible bug, and the campaign must find it, classify the
 * violation, and shrink it to a reproducer that still fails.
 */
TEST(FuzzCampaign, FindsAndShrinksSeededMutant)
{
    FuzzOptions opts;
    opts.seed = 7;
    opts.maxPrograms = 2;
    opts.crashStride = 2;
    opts.mutation = MutationKind::DropUndoLog;
    opts.schemes = {SchemeKind::Base};

    FuzzCampaignResult result = runFuzzCampaign(opts);
    ASSERT_FALSE(result.findings.empty())
        << "drop-undo-log must be caught within two programs";
    const FuzzFinding &f = result.findings.front();
    EXPECT_EQ(f.scheme, SchemeKind::Base);
    EXPECT_EQ(f.mutation, MutationKind::DropUndoLog);
    EXPECT_EQ(f.kind, check::ViolationKind::LogBeforeData);
    EXPECT_GT(f.oracleCalls, 0u);
    // Shrinking never grows the case.
    EXPECT_LE(f.shrunk.opCount(), 64u);
    EXPECT_LE(f.shrunkCrashIndex, f.crashIndex);

    // The shrunk reproducer still fails the same way when replayed.
    FuzzCaseConfig cfg;
    cfg.scheme = f.scheme;
    cfg.mutation = f.mutation;
    cfg.crashIndex = f.shrunkCrashIndex;
    FuzzCaseResult replay = runLitmusCase(f.shrunk, cfg);
    bool same_kind = false;
    for (const auto &v : replay.violations)
        same_kind |= v.kind == f.kind;
    EXPECT_TRUE(same_kind);

    // And with the mutation removed, the same case runs clean.
    cfg.mutation = MutationKind::None;
    EXPECT_TRUE(runLitmusCase(f.shrunk, cfg).clean());
}

TEST(FuzzCampaign, FindsSiloFlushBitMutant)
{
    // stale-flush-bit only fires on a mid-transaction eviction, so
    // this doubles as a regression test that generated programs reach
    // that micro-state at all (the conflict-walk pools).
    FuzzOptions opts;
    opts.seed = 7;
    opts.maxPrograms = 3;
    opts.crashStride = 1;
    opts.mutation = MutationKind::StaleFlushBit;
    opts.schemes = {SchemeKind::Silo};

    FuzzCampaignResult result = runFuzzCampaign(opts);
    ASSERT_FALSE(result.findings.empty())
        << "stale-flush-bit must be caught within three programs";
    EXPECT_EQ(result.findings.front().scheme, SchemeKind::Silo);
}

TEST(FuzzCampaign, SummaryIsReproducibleFromSeed)
{
    FuzzOptions opts;
    opts.seed = 42;
    opts.maxPrograms = 2;
    opts.crashStride = 4;
    opts.mutation = MutationKind::SkipCommitMarker;
    opts.schemes = {SchemeKind::Base, SchemeKind::Fwb};

    FuzzCampaignResult a = runFuzzCampaign(opts);
    FuzzCampaignResult b = runFuzzCampaign(opts);
    EXPECT_EQ(a.summaryJson(opts), b.summaryJson(opts));
    EXPECT_EQ(a.casesRun, b.casesRun);
    EXPECT_FALSE(a.budgetExhausted);
}

TEST(FuzzCampaign, SummaryIsIdenticalAcrossJobCounts)
{
    // The campaign fans each phase out over $SILO_JOBS workers; every
    // case writes its own slot, so findings, shrinking and the summary
    // must not depend on the worker count.
    FuzzOptions opts;
    opts.seed = 42;
    opts.maxPrograms = 2;
    opts.crashStride = 3;
    opts.mutation = MutationKind::SkipCommitMarker;

    const std::string saved = harness::envStrOr("SILO_JOBS", "");
    auto run_at = [&](const char *jobs) {
        EXPECT_EQ(setenv("SILO_JOBS", jobs, 1), 0);   // NOLINT(concurrency-mt-unsafe)
        return runFuzzCampaign(opts);
    };
    FuzzCampaignResult serial = run_at("1");
    FuzzCampaignResult parallel = run_at("4");
    if (saved.empty())
        unsetenv("SILO_JOBS");   // NOLINT(concurrency-mt-unsafe)
    else
        setenv("SILO_JOBS", saved.c_str(), 1);   // NOLINT(concurrency-mt-unsafe)

    EXPECT_FALSE(serial.findings.empty())
        << "the mutant must be found, or shrinking goes untested";
    EXPECT_EQ(serial.casesRun, parallel.casesRun);
    EXPECT_EQ(serial.summaryJson(opts), parallel.summaryJson(opts));
}

TEST(FuzzCampaign, CleanSchemesProduceNoFindings)
{
    // A quick true-negative pass: one program, every scheme, stride 3.
    FuzzOptions opts;
    opts.seed = 3;
    opts.maxPrograms = 1;
    opts.crashStride = 3;

    FuzzCampaignResult result = runFuzzCampaign(opts);
    EXPECT_EQ(result.programsRun, 1u);
    EXPECT_GT(result.crashCases, 0u);
    for (const auto &f : result.findings) {
        ADD_FAILURE() << "unexpected violation: "
                      << f.original.toJson();
    }
}

} // namespace
} // namespace silo::fuzz
