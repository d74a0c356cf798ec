/**
 * @file
 * Differential test of the crash sweep (harness::sweepCrashes): at
 * every crash index it must give what a fresh System gives after
 * runEvents(k), crash() and recover() — the same violations, the same
 * recovered media image and the same number of durable records right
 * after the crash — and the System it ran, which the sweep finishes as
 * the completion case, must end like an unswept completion run, proof
 * that a crashed copy never touches the live machine.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_runner.hh"
#include "fuzz/litmus_gen.hh"
#include "harness/system.hh"
#include "sim/rng.hh"
#include "workload/trace_gen.hh"

namespace silo::harness
{
namespace
{

/** What the test compares at one crash index. */
struct Verdict
{
    std::vector<std::string> violations;
    std::vector<std::pair<Addr, Word>> media;
    std::size_t liveRecordsAtCrash = 0;
};

/** @p violations as JSON lines, each stamped with crash index @p k. */
std::vector<std::string>
stamped(const std::vector<check::Violation> &violations, std::uint64_t k)
{
    std::vector<std::string> out;
    for (check::Violation v : violations) {
        v.crashIndex = k;
        out.push_back(v.toJson());
    }
    return out;
}

Verdict
freshCrash(const SimConfig &cfg, const workload::WorkloadTraces &traces,
           std::uint64_t k)
{
    System sys(cfg, traces);
    sys.runEvents(k);
    sys.crash();
    Verdict v;
    v.liveRecordsAtCrash = sys.logRegion().liveRecordCount();
    sys.recover();
    v.violations = stamped(sys.checker()->violations(), k);
    v.media = sys.pm().media().words();
    return v;
}

std::string
reportText(const SimReport &r)
{
    std::ostringstream os;
    os << r.committedTransactions << " " << r.ticks << " "
       << r.txPerMillionCycles << " " << r.mediaWordWrites << " "
       << r.mediaLineWrites << " " << r.dataRegionWordWrites << " "
       << r.logRegionWordWrites << " " << r.logRecordsWritten << " "
       << r.commitStallCycles << " " << r.storeStallCycles << " "
       << r.wpqFullStalls << " " << r.wpqAcceptedWrites << " "
       << r.wpqAcceptedBytes;
    return os.str();
}

/**
 * What a finished System observed as the completion case, plus the
 * checker's event counts, which a crashed copy reporting to the live
 * checker would raise.
 */
std::vector<std::string>
observed(System &sys)
{
    const check::PersistencyChecker &ck = *sys.checker();
    std::vector<std::string> out = stamped(ck.violations(), 0);
    out.push_back(reportText(sys.report()));
    out.push_back(sys.statsJson());
    out.push_back(std::to_string(sys.eventQueue().executedEvents()));
    const check::CheckerCounters &c = ck.counters();
    for (std::uint64_t n :
         {c.stores, c.wpqLineAccepts, c.wpqWordAccepts, c.logPersists,
          c.commits, c.wordsCheckedAtRecovery, c.logRecordDrops})
        out.push_back(std::to_string(n));
    return out;
}

/** An unswept completion run: its stop point, its E, what it saw. */
struct Completion
{
    std::uint64_t stop = 0;
    std::uint64_t events = 0;
    std::vector<std::string> observed;
};

Completion
completeUnswept(const SimConfig &cfg,
                const workload::WorkloadTraces &traces)
{
    System sys(cfg, traces);
    Completion out;
    sys.run();
    out.stop = sys.eventQueue().executedEvents();
    sys.finish();
    out.events = sys.eventQueue().executedEvents();
    out.observed = observed(sys);
    return out;
}

/** Totals over one sweep, for the callers' coverage assertions. */
struct SweepTally
{
    std::size_t swept = 0;
    std::size_t compared = 0;
    std::size_t withViolations = 0;
    std::size_t pastStop = 0;
};

/**
 * Sweep crash indices 1, 1 + @p stride, ... over one System and
 * compare each with a fresh System. Every index up to the events
 * @p ref executed is swept, with the System at event k up to the stop
 * point and finished past it. A segmented run's settle window holds
 * ~1,500 lifecycle ticks, each a crash index past the stop point;
 * there the first few, every 64th and the last are compared. Then
 * compare the swept System, which the sweep finished, with @p ref.
 */
SweepTally
expectSweepMatchesFresh(const SimConfig &cfg,
                        const workload::WorkloadTraces &traces,
                        const Completion &ref, std::uint64_t stride,
                        const std::string &label)
{
    SweepTally tally;
    System sys(cfg, traces);
    std::uint64_t events = sweepCrashes(
        sys, stride, [&](std::uint64_t k, const DomainCopy &copy) {
        EXPECT_EQ(k, 1 + tally.swept * stride) << label;
        ++tally.swept;
        EXPECT_EQ(sys.eventQueue().executedEvents(),
                  k <= ref.stop ? k : ref.events)
            << label << " crash " << k;
        if (k > ref.stop) {
            ++tally.pastStop;
            if (cfg.logSegmented && k - ref.stop > 4 && k % 64 != 0 &&
                k + stride <= ref.events)
                return true;
        }
        Verdict fresh = freshCrash(cfg, traces, k);
        EXPECT_EQ(stamped(copy.checker->violations(), k),
                  fresh.violations)
            << label << " crash " << k;
        EXPECT_EQ(copy.domain.media.words(), fresh.media)
            << label << " crash " << k;
        EXPECT_EQ(copy.liveRecordsAtCrash, fresh.liveRecordsAtCrash)
            << label << " crash " << k;
        ++tally.compared;
        tally.withViolations += !fresh.violations.empty();
        return !::testing::Test::HasFailure();
    });
    EXPECT_EQ(events, ref.events) << label;
    if (!::testing::Test::HasFailure()) {
        EXPECT_EQ(tally.swept, (ref.events - 1) / stride + 1) << label;
    }
    EXPECT_EQ(observed(sys), ref.observed) << label;
    return tally;
}

/** Litmus programs of the campaign's default generator. */
std::vector<workload::LitmusProgram>
programs(std::uint64_t seed, unsigned count)
{
    Rng rng(seed);
    fuzz::LitmusGenConfig gen;
    std::vector<workload::LitmusProgram> out;
    for (unsigned i = 0; i < count; ++i) {
        out.push_back(fuzz::generateLitmus(
            rng, gen, "sweep-" + std::to_string(i)));
    }
    return out;
}

/** Sweep every index of @p program on @p scheme (litmus machine). */
SweepTally
sweepLitmus(const workload::LitmusProgram &program, SchemeKind scheme,
            MutationKind mutation = MutationKind::None,
            bool segmented = false)
{
    unsigned threads = unsigned(program.threads.size());
    SimConfig cfg =
        fuzz::litmusSimConfig(threads, scheme, mutation, segmented);
    workload::WorkloadTraces traces = workload::litmusTraces(program);
    std::string label = program.name + " " + schemeName(scheme) + " " +
                        mutationName(mutation) +
                        (segmented ? " segmented" : "");
    return expectSweepMatchesFresh(cfg, traces,
                                   completeUnswept(cfg, traces), 1, label);
}

/** One test per scheme, so the sanitized copy runs them in parallel. */
class CrashSweepScheme : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(CrashSweepScheme, MatchesFreshSystemsOnGeneratedPrograms)
{
    std::size_t compared = 0;
    for (const auto &program : programs(23, 20)) {
        compared += sweepLitmus(program, GetParam()).compared;
        ASSERT_FALSE(HasFailure()) << program.name;
    }
    EXPECT_GT(compared, 500u);
}

TEST_P(CrashSweepScheme, MatchesFreshSystemsUnderSegmentation)
{
    std::size_t past_stop = 0;
    for (const auto &program : programs(29, 2)) {
        past_stop += sweepLitmus(program, GetParam(), MutationKind::None,
                                 true)
                         .pastStop;
        ASSERT_FALSE(HasFailure()) << program.name;
    }
    // The settle window's lifecycle ticks are crash indices too, and
    // every one of them crashes the stop-point state.
    EXPECT_GT(past_stop, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, CrashSweepScheme, ::testing::ValuesIn(allSchemes),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        std::string name = schemeName(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(CrashSweep, MatchesFreshSystemsWithViolations)
{
    const std::pair<SchemeKind, MutationKind> mutants[] = {
        {SchemeKind::Silo, MutationKind::SkipCrashUndoFlush},
        {SchemeKind::Base, MutationKind::DropUndoLog},
        {SchemeKind::Base, MutationKind::SkipCommitMarker},
    };
    for (const auto &[scheme, mutation] : mutants) {
        std::size_t with_violations = 0;
        for (const auto &program : programs(3, 6)) {
            with_violations +=
                sweepLitmus(program, scheme, mutation).withViolations;
            ASSERT_FALSE(HasFailure()) << program.name;
        }
        EXPECT_GT(with_violations, 0u) << mutationName(mutation);
    }
}

TEST(CrashSweep, MatchesFreshSystemsWithTwoControllers)
{
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 2;
    tg.transactionsPerThread = 100;
    tg.seed = 3;
    auto traces = workload::generateTraces(tg);

    // A Table II machine: a domain with two controllers' WPQs and log
    // paths, crashed at 50 points spread over the run.
    SimConfig cfg;
    cfg.numCores = 2;
    cfg.numMemControllers = 2;
    cfg.scheme = SchemeKind::Silo;
    cfg.checker = true;
    Completion ref = completeUnswept(cfg, traces);
    SweepTally t = expectSweepMatchesFresh(cfg, traces, ref,
                                           ref.events / 50, "Bank Silo");
    EXPECT_GE(t.compared, 50u);
}

TEST(CrashSweep, NoStridedIndexPassesTheCompletionsEvents)
{
    // With a stride of S - 2, where S is the stop point, the sweep
    // visits 1 and S - 1; its next index, 2S - 3, lies past the stop
    // point and past E, the events the completion executed, so it must
    // not reach fn: (E - 1) / stride + 1 = 2 indices are swept.
    workload::LitmusProgram program = programs(23, 3)[2];
    SimConfig cfg = fuzz::litmusSimConfig(
        unsigned(program.threads.size()), SchemeKind::Silo);
    workload::WorkloadTraces traces = workload::litmusTraces(program);
    Completion ref = completeUnswept(cfg, traces);
    ASSERT_GT(ref.events, ref.stop) << "no settle-phase events";
    ASSERT_GT(2 * ref.stop - 3, ref.events);
    SweepTally t = expectSweepMatchesFresh(cfg, traces, ref,
                                           ref.stop - 2, "strided Silo");
    EXPECT_EQ(t.swept, 2u);
}

} // namespace
} // namespace silo::harness
