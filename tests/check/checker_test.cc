/**
 * @file
 * Persistency-checker tests.
 *
 * Two halves:
 *  - Clean runs: every scheme x workload combination, with and without
 *    crash injection, must produce zero violations — the checker's
 *    invariants hold on the shipped schemes.
 *  - Mutation harness: each deliberately seeded durability bug
 *    (SimConfig::mutation) must be flagged, and flagged as the
 *    SPECIFIC invariant it breaks — not just "something failed".
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/persistency_checker.hh"
#include "harness/system.hh"
#include "workload/trace_gen.hh"

namespace silo::check
{
namespace
{

using harness::System;

workload::WorkloadTraces
makeTraces(workload::WorkloadKind kind, unsigned threads,
           unsigned tx_per_thread, std::uint64_t seed,
           unsigned ops_per_tx = 1)
{
    workload::TraceGenConfig tg;
    tg.kind = kind;
    tg.numThreads = threads;
    tg.transactionsPerThread = tx_per_thread;
    tg.opsPerTransaction = ops_per_tx;
    tg.seed = seed;
    return workload::generateTraces(tg);
}

SimConfig
checkedConfig(SchemeKind scheme, unsigned cores)
{
    SimConfig cfg;
    cfg.numCores = cores;
    cfg.scheme = scheme;
    cfg.checker = true;
    // A small log buffer provokes Silo's overflow paths too.
    cfg.logBufferEntries = 12;
    return cfg;
}

/** Shrink the caches so lines evict mid-transaction (flush-bit and
 *  overflow paths need uncommitted data reaching the ADR domain). */
void
shrinkCaches(SimConfig &cfg)
{
    cfg.l1d = {1024, 2, 4};
    cfg.l2 = {2048, 2, 12};
    cfg.l3 = {4096, 4, 28};
}

std::string
reportOf(System &sys)
{
    std::ostringstream ss;
    sys.checker()->report(ss);
    return ss.str();
}

// --- Clean runs ---------------------------------------------------------

struct CleanCase
{
    SchemeKind scheme;
    workload::WorkloadKind workload;
};

std::string
cleanName(const ::testing::TestParamInfo<CleanCase> &info)
{
    std::string name = std::string(schemeName(info.param.scheme)) + "_" +
                       workload::workloadName(info.param.workload);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            c = '_';
    }
    return name;
}

class CheckerClean : public ::testing::TestWithParam<CleanCase>
{
};

TEST_P(CheckerClean, FullRunHasNoViolations)
{
    auto traces = makeTraces(GetParam().workload, 2, 20, 11);
    SimConfig cfg = checkedConfig(GetParam().scheme, 2);
    System sys(cfg, traces);
    sys.finish();

    ASSERT_NE(sys.checker(), nullptr);
    EXPECT_TRUE(sys.checker()->clean()) << reportOf(sys);
    // The checker actually observed the run.
    EXPECT_GT(sys.checker()->counters().stores, 0u);
    EXPECT_GT(sys.checker()->counters().commits, 0u);
}

TEST_P(CheckerClean, CrashInjectionHasNoViolations)
{
    // Odd offsets land the crash in varied micro-states (mid-store,
    // mid-commit, mid-overflow).
    for (std::uint64_t crash_events : {97u, 1999u, 7919u}) {
        auto traces = makeTraces(GetParam().workload, 2, 20, 12);
        SimConfig cfg = checkedConfig(GetParam().scheme, 2);
        System sys(cfg, traces);
        sys.runEvents(crash_events);
        sys.crash();
        sys.recover();

        ASSERT_NE(sys.checker(), nullptr);
        EXPECT_TRUE(sys.checker()->clean())
            << "crash at " << crash_events << " events:\n"
            << reportOf(sys);
        EXPECT_GT(sys.checker()->counters().wordsCheckedAtRecovery, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CheckerClean,
    ::testing::Values(
        CleanCase{SchemeKind::Base, workload::WorkloadKind::Array},
        CleanCase{SchemeKind::Base, workload::WorkloadKind::Queue},
        CleanCase{SchemeKind::Base, workload::WorkloadKind::Tpcc},
        CleanCase{SchemeKind::Fwb, workload::WorkloadKind::Array},
        CleanCase{SchemeKind::Fwb, workload::WorkloadKind::Queue},
        CleanCase{SchemeKind::Fwb, workload::WorkloadKind::Tpcc},
        CleanCase{SchemeKind::MorLog, workload::WorkloadKind::Array},
        CleanCase{SchemeKind::MorLog, workload::WorkloadKind::Queue},
        CleanCase{SchemeKind::MorLog, workload::WorkloadKind::Tpcc},
        CleanCase{SchemeKind::Lad, workload::WorkloadKind::Array},
        CleanCase{SchemeKind::Lad, workload::WorkloadKind::Queue},
        CleanCase{SchemeKind::Lad, workload::WorkloadKind::Tpcc},
        CleanCase{SchemeKind::Silo, workload::WorkloadKind::Array},
        CleanCase{SchemeKind::Silo, workload::WorkloadKind::Queue},
        CleanCase{SchemeKind::Silo, workload::WorkloadKind::Tpcc},
        CleanCase{SchemeKind::SwEadr, workload::WorkloadKind::Array},
        CleanCase{SchemeKind::SwEadr, workload::WorkloadKind::Queue},
        CleanCase{SchemeKind::SwEadr, workload::WorkloadKind::Tpcc}),
    cleanName);

TEST_P(CheckerClean, SmallCachesHaveNoViolations)
{
    // Heavy eviction pressure exercises flush-bit, held-entry, and
    // overflow paths without producing false positives.
    auto traces = makeTraces(GetParam().workload, 2, 20, 13);
    SimConfig cfg = checkedConfig(GetParam().scheme, 2);
    shrinkCaches(cfg);
    System sys(cfg, traces);
    sys.runEvents(20000);
    sys.crash();
    sys.recover();
    ASSERT_NE(sys.checker(), nullptr);
    EXPECT_TRUE(sys.checker()->clean()) << reportOf(sys);
}

TEST_P(CheckerClean, LongTransactionsHaveNoViolations)
{
    // Fig. 14-style large transactions under eviction pressure: Silo's
    // flush-bits actually get set, LAD's slow mode engages, and the FWB
    // walker meets many dirty uncommitted lines — still zero
    // violations.
    auto traces = makeTraces(GetParam().workload, 2, 8, 14, 64);
    SimConfig cfg = checkedConfig(GetParam().scheme, 2);
    shrinkCaches(cfg);
    cfg.logBufferEntries = 256;
    System sys(cfg, traces);
    sys.runEvents(12000);
    sys.crash();
    sys.recover();
    ASSERT_NE(sys.checker(), nullptr);
    EXPECT_TRUE(sys.checker()->clean()) << reportOf(sys);
}

TEST(CheckerOffByDefault, NoCheckerObjectWithoutFlag)
{
    auto traces = makeTraces(workload::WorkloadKind::Array, 1, 2, 1);
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = SchemeKind::Silo;
    System sys(cfg, traces);
    EXPECT_EQ(sys.checker(), nullptr);
    sys.run();
}

// --- Mutation harness ---------------------------------------------------

/** Run scheme + mutation to completion; return the checker. */
PersistencyChecker &
runMutant(System &sys)
{
    sys.finish();
    return *sys.checker();
}

/** Run scheme + mutation into a crash + recovery; return the checker. */
PersistencyChecker &
runMutantCrash(System &sys, std::uint64_t crash_events)
{
    sys.runEvents(crash_events);
    sys.crash();
    sys.recover();
    return *sys.checker();
}

TEST(CheckerMutation, DropUndoLogFlagsLogBeforeData)
{
    auto traces = makeTraces(workload::WorkloadKind::Array, 2, 20, 21);
    SimConfig cfg = checkedConfig(SchemeKind::Base, 2);
    cfg.mutation = MutationKind::DropUndoLog;
    System sys(cfg, traces);
    PersistencyChecker &chk = runMutant(sys);
    EXPECT_GT(chk.countOf(ViolationKind::LogBeforeData), 0u)
        << reportOf(sys);
}

TEST(CheckerMutation, ReorderLogDataFlagsLogBeforeData)
{
    // The data flush races ahead of its log record; the end state is
    // identical to a correct run, so only an online ordering check can
    // see this bug.
    auto traces = makeTraces(workload::WorkloadKind::Array, 2, 20, 22);
    SimConfig cfg = checkedConfig(SchemeKind::Base, 2);
    cfg.mutation = MutationKind::ReorderLogData;
    System sys(cfg, traces);
    PersistencyChecker &chk = runMutant(sys);
    EXPECT_GT(chk.countOf(ViolationKind::LogBeforeData), 0u)
        << reportOf(sys);
    // And the end state is indeed clean-looking: no crash-closure
    // complaint exists because no crash happened.
    EXPECT_EQ(chk.countOf(ViolationKind::CrashClosure), 0u);
}

TEST(CheckerMutation, SkipCommitMarkerFlagsCommitNotDurable)
{
    auto traces = makeTraces(workload::WorkloadKind::Array, 2, 10, 23);
    SimConfig cfg = checkedConfig(SchemeKind::Base, 2);
    cfg.mutation = MutationKind::SkipCommitMarker;
    System sys(cfg, traces);
    PersistencyChecker &chk = runMutant(sys);
    EXPECT_GT(chk.countOf(ViolationKind::CommitNotDurable), 0u)
        << reportOf(sys);
}

TEST(CheckerMutation, DropHeldReleaseFlagsHeldReleaseOrdering)
{
    auto traces = makeTraces(workload::WorkloadKind::Array, 2, 10, 24);
    SimConfig cfg = checkedConfig(SchemeKind::Lad, 2);
    cfg.mutation = MutationKind::DropHeldRelease;
    System sys(cfg, traces);
    PersistencyChecker &chk = runMutant(sys);
    EXPECT_GT(chk.countOf(ViolationKind::HeldReleaseOrdering), 0u)
        << reportOf(sys);
}

TEST(CheckerMutation, StaleFlushBitFlagsFlushBitAccounting)
{
    auto traces = makeTraces(workload::WorkloadKind::Array, 2, 20, 25);
    SimConfig cfg = checkedConfig(SchemeKind::Silo, 2);
    shrinkCaches(cfg);
    cfg.mutation = MutationKind::StaleFlushBit;
    System sys(cfg, traces);
    PersistencyChecker &chk = runMutant(sys);
    EXPECT_GT(chk.countOf(ViolationKind::FlushBitAccounting), 0u)
        << reportOf(sys);
}

TEST(CheckerMutation, SkipCrashUndoFlushFlagsCrashClosure)
{
    // Crash mid-run with open transactions whose partial updates
    // reached PM via evictions; without the battery undo flush the
    // recovered image cannot be closed over committed state.
    bool flagged = false;
    for (std::uint64_t crash_events : {7919u, 12000u, 17389u}) {
        auto traces =
            makeTraces(workload::WorkloadKind::Array, 2, 8, 26, 64);
        SimConfig cfg = checkedConfig(SchemeKind::Silo, 2);
        shrinkCaches(cfg);
        cfg.logBufferEntries = 256;
        cfg.mutation = MutationKind::SkipCrashUndoFlush;
        System sys(cfg, traces);
        PersistencyChecker &chk = runMutantCrash(sys, crash_events);
        flagged = flagged ||
                  chk.countOf(ViolationKind::CrashClosure) > 0 ||
                  chk.countOf(ViolationKind::LogBeforeData) > 0;
    }
    EXPECT_TRUE(flagged)
        << "no crash point exposed the skipped undo flush";
}

TEST(CheckerMutation, DoubleInPlaceFlagsDoublePersist)
{
    auto traces = makeTraces(workload::WorkloadKind::Array, 2, 8, 27, 64);
    SimConfig cfg = checkedConfig(SchemeKind::Silo, 2);
    shrinkCaches(cfg);
    cfg.logBufferEntries = 256;
    cfg.mutation = MutationKind::DoubleInPlace;
    System sys(cfg, traces);
    PersistencyChecker &chk = runMutant(sys);
    EXPECT_GT(chk.countOf(ViolationKind::DoublePersist), 0u)
        << reportOf(sys);
}

// --- Hand-driven checks: the checker reads the domain it is handed -------

/** A WPQ entry carrying @p value for the data word @p word. */
mc::WpqEntry
wordEntry(Addr word, Word value)
{
    mc::WpqEntry entry{};
    entry.key = lineAlign(word);
    entry.pmLine = pmLineAlign(word);
    entry.bytes = wordBytes;
    entry.set(unsigned((word - entry.pmLine) / wordBytes), value);
    return entry;
}

// --- Invariant 6: when a committed redo record is dead ------------------

/**
 * The shape of a segmented FWB run (fixture
 * checkpoint-under-open-undo-fwb-seg.litmus): transaction 2 commits 2
 * to a word, the checkpoint flushes 2 into the ADR domain, open
 * transaction 4 stores 9 to the word and 9 enters the ADR domain, then
 * the checkpoint drops transaction 2's record. Recovery revokes 9 to
 * its pre-transaction value 2 if transaction 4's undo is durable.
 * @return the live-record-reclaimed violations.
 */
std::size_t
reclaimedUnderOpenWriter(bool undo_durable)
{
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = SchemeKind::Fwb;
    cfg.checker = true;
    EventQueue eq;
    PersistentDomain domain(cfg);
    PersistencyChecker chk(cfg, eq, domain);
    const Addr word = addr_map::dataArenaBase(0);
    const Addr log_base = addr_map::logAreaBase(0);
    using Kind = log::LogRecord::Kind;
    auto record = [&](Kind kind, std::uint16_t txid, Word old_val,
                      Word new_val) {
        log::LogRecord rec;
        rec.kind = kind;
        rec.txid = txid;
        rec.dataAddr = word;
        rec.oldData = old_val;
        rec.newData = new_val;
        return rec;
    };

    chk.onTxBegin(0, 2);
    chk.onStore(0, word, 0, 2);
    const log::LogRecord redo = record(Kind::UndoRedo, 2, 0, 2);
    chk.onLogPersist(log_base, redo);
    chk.onLogPersist(log_base + 64, record(Kind::Commit, 2, 0, 0));
    chk.onTxEndRequested(0);
    chk.onTxEndComplete(0);
    domain.mcs[0].wpq.push_back(wordEntry(word, 2));
    chk.onWpqAcceptWord(word, 2);
    chk.onCheckpointWord(word, 2);

    chk.onTxBegin(0, 4);
    chk.onStore(0, word, 2, 9);
    if (undo_durable)
        chk.onLogPersist(log_base + 128, record(Kind::Undo, 4, 2, 9));
    // The newer entry is the one the ADR drain would leave.
    domain.mcs[0].wpq.push_back(wordEntry(word, 9));
    chk.onWpqAcceptWord(word, 9);
    chk.onLogRecordDrop(log_base, redo, log::LogDropReason::Checkpointed);
    EXPECT_EQ(chk.clean(), undo_durable);
    return chk.countOf(ViolationKind::LiveRecordReclaimed);
}

TEST(CheckerDeadRecord, OpenWritersDurableUndoRestoresTheCommittedValue)
{
    EXPECT_EQ(reclaimedUnderOpenWriter(true), 0u);
}

TEST(CheckerDeadRecord, WithoutDurableUndoTheDropIsFlagged)
{
    EXPECT_EQ(reclaimedUnderOpenWriter(false), 1u);
}

// --- Invariant 1: undo coverage from the ADR log path --------------------

/**
 * An open Base transaction's uncommitted value enters the WPQ while its
 * undo record, not yet accepted, waits in the MC's ADR log path: the
 * record is durable there (§III-D), and the checker reads it from the
 * domain it observes. @return the log-before-data violations.
 */
std::size_t
acceptedWithUndoInLogPath(bool undo_in_log_path)
{
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = SchemeKind::Base;
    cfg.checker = true;
    EventQueue eq;
    PersistentDomain domain(cfg);
    PersistencyChecker chk(cfg, eq, domain);
    const Addr word = addr_map::dataArenaBase(0);

    chk.onTxBegin(0, 1);
    chk.onStore(0, word, 5, 7);
    if (undo_in_log_path) {
        log::LogRecord undo;
        undo.kind = log::LogRecord::Kind::Undo;
        undo.txid = 1;
        undo.dataAddr = word;
        undo.oldData = 5;
        domain.mcs[0].logPath.emplace(addr_map::logAreaBase(0), undo);
    }
    chk.onWpqAcceptWord(word, 7);
    EXPECT_EQ(chk.clean(), undo_in_log_path);
    return chk.countOf(ViolationKind::LogBeforeData);
}

TEST(CheckerInFlightUndo, UndoWaitingInTheAdrLogPathCovers)
{
    EXPECT_EQ(acceptedWithUndoInLogPath(true), 0u);
}

TEST(CheckerInFlightUndo, WithoutTheUndoRecordItIsLogBeforeData)
{
    EXPECT_EQ(acceptedWithUndoInLogPath(false), 1u);
}

// --- Invariant 1: undo coverage from the scheme's buffer -----------------

/** A scheme whose battery- or ADR-backed buffer holds undo data. */
struct BufferScheme
{
    SchemeKind scheme;
};

/** Print a case by name: ctest names carry the printed parameter. */
void
PrintTo(const BufferScheme &c, std::ostream *os)
{
    *os << schemeName(c.scheme);
}

/**
 * An open transaction's uncommitted value reaches the WPQ in an evicted
 * line while the store's entry, old data included, sits in Silo's
 * battery-backed log buffer (§III-G) or MorLog's ADR-domain merge
 * buffer. The scheme reports nothing: the checker reads the entry from
 * the domain it observes. @return the log-before-data violations.
 */
std::size_t
acceptedWithEntryInBuffer(SchemeKind scheme, bool entry_in_buffer)
{
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = scheme;
    cfg.checker = true;
    EventQueue eq;
    PersistentDomain domain(cfg);
    PersistencyChecker chk(cfg, eq, domain);
    const Addr word = addr_map::dataArenaBase(0);

    chk.onTxBegin(0, 1);
    chk.onStore(0, word, 5, 7);
    if (entry_in_buffer && scheme == SchemeKind::Silo) {
        silo_scheme::LogBufferEntry entry;
        entry.txid = 1;
        entry.addr = word;
        entry.oldData = 5;
        entry.newData = 7;
        domain.silo[0].buffer.push_back(entry);
    } else if (entry_in_buffer) {
        domain.morlog[0].push_back(log::MorLogEntry{1, word, 5, 7});
    }
    std::array<Word, wordsPerLine> line{};
    line[0] = 7;
    chk.onWpqAcceptLine(word, line, false);
    EXPECT_EQ(chk.clean(), entry_in_buffer);
    return chk.countOf(ViolationKind::LogBeforeData);
}

class CheckerBufferUndo : public ::testing::TestWithParam<BufferScheme>
{
};

TEST_P(CheckerBufferUndo, EntryInTheBufferCovers)
{
    EXPECT_EQ(acceptedWithEntryInBuffer(GetParam().scheme, true), 0u);
}

TEST_P(CheckerBufferUndo, WithoutTheEntryItIsLogBeforeData)
{
    EXPECT_EQ(acceptedWithEntryInBuffer(GetParam().scheme, false), 1u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, CheckerBufferUndo,
                         ::testing::Values(BufferScheme{SchemeKind::Silo},
                                           BufferScheme{SchemeKind::MorLog}),
                         [](const auto &info) {
                             return std::string(
                                 schemeName(info.param.scheme));
                         });

// --- Invariant 3: a flush-bit claim against the ADR domain ---------------

/**
 * Silo sets a flush-bit for an open transaction's word, claiming the ADR
 * domain carries its new data 7, while the WPQ holds @p in_wpq for the
 * word. @return the checker's violations.
 */
std::vector<Violation>
flushBitClaimOver(Word in_wpq)
{
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.scheme = SchemeKind::Silo;
    cfg.checker = true;
    EventQueue eq;
    PersistentDomain domain(cfg);
    PersistencyChecker chk(cfg, eq, domain);
    const Addr word = addr_map::dataArenaBase(0);

    chk.onTxBegin(0, 1);
    chk.onStore(0, word, 5, 7);
    domain.mcs[0].wpq.push_back(wordEntry(word, in_wpq));
    chk.noteFlushBit(0, 1, word, 7);
    return chk.violations();
}

TEST(CheckerFlushBit, ClaimOfTheValueInTheWpqIsClean)
{
    EXPECT_TRUE(flushBitClaimOver(7).empty());
}

TEST(CheckerFlushBit, ClaimOfAnotherValueIsFlagged)
{
    std::vector<Violation> found = flushBitClaimOver(6);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].kind, ViolationKind::FlushBitAccounting);
    EXPECT_NE(found[0].detail.find("holds 6,"), std::string::npos)
        << found[0].detail;
}

// --- Reporting ----------------------------------------------------------

TEST(CheckerReport, ViolationCarriesProvenance)
{
    auto traces = makeTraces(workload::WorkloadKind::Array, 1, 5, 28);
    SimConfig cfg = checkedConfig(SchemeKind::Base, 1);
    cfg.mutation = MutationKind::DropUndoLog;
    System sys(cfg, traces);
    PersistencyChecker &chk = runMutant(sys);
    ASSERT_FALSE(chk.clean());
    const Violation &v = chk.violations().front();
    EXPECT_EQ(v.kind, ViolationKind::LogBeforeData);
    EXPECT_NE(v.addr, 0u);
    EXPECT_FALSE(v.detail.empty());

    std::string text = reportOf(sys);
    EXPECT_NE(text.find("log-before-data"), std::string::npos);
    EXPECT_NE(text.find("addr=0x"), std::string::npos);
}

TEST(CheckerReport, ViolationNamesAreDistinct)
{
    std::set<std::string> names;
    for (ViolationKind k :
         {ViolationKind::LogBeforeData, ViolationKind::CommitNotDurable,
          ViolationKind::HeldReleaseOrdering,
          ViolationKind::FlushBitAccounting, ViolationKind::DoublePersist,
          ViolationKind::CrashClosure, ViolationKind::LiveRecordReclaimed,
          ViolationKind::CheckpointImage}) {
        names.insert(violationName(k));
    }
    EXPECT_EQ(names.size(), 8u);
}

} // namespace
} // namespace silo::check
