/**
 * @file
 * Runs past the 16-bit txid wrap (Fig. 6): a core's 65,537th
 * transaction reuses txid 1. Recovery, the persistency checker and the
 * segmented lifecycle must each tell a reused txid from its earlier,
 * committed instance.
 *
 *  - TxidWrapRecovery: the long_horizon reproducer (Bank, one core,
 *    seed 5, 66,000 transactions) crashed just past the wrap; the
 *    recovered media must equal the committed-prefix oracle.
 *  - TxidWrapChecker: a one-thread litmus program whose transaction i
 *    stores i + 1 to word (i mod 7) * 8, so the two instances of a
 *    txid write different words, crashed past the wrap with the
 *    checker on, plain and under the fuzzer's segmented geometry; and
 *    a Base mutant that drops every undo record, which the checker
 *    must flag once per transaction.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <vector>

#include "fuzz/fuzz_runner.hh"
#include "harness/system.hh"
#include "workload/litmus.hh"
#include "workload/trace_gen.hh"

namespace silo::harness
{
namespace
{

/** Crash once this many transactions committed: past the wrap. */
constexpr std::uint64_t crashAfterTx = 65540;

/** @p scheme 's name as a gtest name ("SW-eADR" -> "SW_eADR"). */
std::string
testName(SchemeKind scheme)
{
    std::string name = schemeName(scheme);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

/**
 * Run core 0 of @p sys until it committed crashAfterTx transactions,
 * then @p extra_events more events; crash and recover.
 */
void
crashPastTheWrap(System &sys, std::uint64_t extra_events)
{
    bool more = true;
    while (more && sys.coreAt(0).committedTx() < crashAfterTx)
        more = sys.runEvents(crashAfterTx - sys.coreAt(0).committedTx());
    ASSERT_TRUE(more) << "the run ended before the crash point";
    sys.runEvents(extra_events);
    sys.crash();
    sys.recover();
}

/** Every word of the committed-prefix oracle is on media. */
void
expectCommittedPrefix(System &sys, const workload::WorkloadTraces &traces)
{
    WordStore expected = committedPrefixImage(sys, traces);
    unsigned mismatches = 0;
    for (const auto &[addr, value] : expected) {
        Word got = sys.pm().media().load(addr);
        if (got != value && ++mismatches <= 4) {
            ADD_FAILURE() << "addr 0x" << std::hex << addr << std::dec
                          << ": media holds " << got << ", oracle "
                          << value;
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

class TxidWrapRecovery : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(TxidWrapRecovery, BankCrashedPastTheWrapRecoversTheCommittedPrefix)
{
    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 1;
    tg.transactionsPerThread = 66000;
    tg.seed = 5;
    auto traces = workload::generateTraces(tg);

    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = GetParam();
    System sys(cfg, traces);
    ASSERT_NO_FATAL_FAILURE(crashPastTheWrap(sys, 7));
    expectCommittedPrefix(sys, traces);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TxidWrapRecovery,
                         ::testing::ValuesIn(allSchemes),
                         [](const auto &info) {
                             return testName(info.param);
                         });

/** Transactions of the checker's program: past the wrap by 9. */
constexpr std::size_t wrapProgramTx = 65545;

workload::LitmusProgram
wrapProgram()
{
    workload::LitmusProgram program;
    program.name = "txid-wrap";
    program.threads.resize(1);
    auto &txs = program.threads[0].txs;
    txs.resize(wrapProgramTx);
    for (std::size_t i = 0; i < wrapProgramTx; ++i) {
        workload::LitmusOp store;
        store.offset = Addr(i % 7) * wordBytes;
        store.value = Word(i + 1);
        txs[i].ops.push_back(store);
    }
    return program;
}

std::string
reportOf(const check::PersistencyChecker &checker)
{
    std::ostringstream os;
    checker.report(os);
    return os.str();
}

struct WrapCase
{
    SchemeKind scheme;
    bool segmented;
};

/** Print a case by name: ctest names carry the printed parameter, and
 *  raw bytes would include the struct's padding. */
void
PrintTo(const WrapCase &c, std::ostream *os)
{
    *os << schemeName(c.scheme) << (c.segmented ? " segmented" : " plain");
}

std::vector<WrapCase>
wrapCases()
{
    std::vector<WrapCase> cases;
    for (bool segmented : {false, true}) {
        for (SchemeKind scheme : allSchemes)
            cases.push_back(WrapCase{scheme, segmented});
    }
    return cases;
}

class TxidWrapChecker : public ::testing::TestWithParam<WrapCase>
{
};

TEST_P(TxidWrapChecker, CrashPastTheWrapIsCleanAndRecovers)
{
    const auto traces = workload::litmusTraces(wrapProgram());
    System sys(fuzz::litmusSimConfig(1, GetParam().scheme,
                                     MutationKind::None,
                                     GetParam().segmented),
               traces);
    ASSERT_NO_FATAL_FAILURE(crashPastTheWrap(sys, 3));
    EXPECT_TRUE(sys.checker()->clean()) << reportOf(*sys.checker());
    expectCommittedPrefix(sys, traces);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TxidWrapChecker,
                         ::testing::ValuesIn(wrapCases()),
                         [](const auto &info) {
                             return testName(info.param.scheme) +
                                    (info.param.segmented ? "_Segmented"
                                                          : "_Plain");
                         });

TEST(TxidWrapMutant, DroppedUndoIsFlaggedOncePerTransaction)
{
    const auto traces = workload::litmusTraces(wrapProgram());
    System sys(fuzz::litmusSimConfig(1, SchemeKind::Base,
                                     MutationKind::DropUndoLog),
               traces);
    sys.finish();
    const check::PersistencyChecker &checker = *sys.checker();
    EXPECT_EQ(checker.countOf(check::ViolationKind::LogBeforeData),
              wrapProgramTx);
    EXPECT_EQ(checker.countOf(check::ViolationKind::CommitNotDurable),
              wrapProgramTx);
}

} // namespace
} // namespace silo::harness
