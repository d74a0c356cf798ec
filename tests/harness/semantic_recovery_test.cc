/**
 * @file
 * Semantic crash-recovery tests: instead of comparing raw words, these
 * re-open the workload's data structure on top of the *recovered* PM
 * image and check application-level invariants — the strongest form of
 * the paper's atomic-durability guarantee.
 *
 *  - Bank: the sum of all balances is conserved (transfers are atomic).
 *  - RBtree: the recovered tree still satisfies every red-black
 *    invariant (BST order, red-red, equal black heights).
 *  - Queue: head reachability and the count word stay consistent.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "workload/bank_workload.hh"
#include "workload/mem_client.hh"
#include "workload/queue_workload.hh"
#include "workload/rbtree_workload.hh"
#include "workload/trace_gen.hh"

namespace silo::harness
{
namespace
{

/** Read-only MemClient over a recovered media image. */
class MediaClient : public workload::MemClient
{
  public:
    explicit MediaClient(const WordStore &media) : _media(media) {}

    Word load(Addr addr) override { return _media.load(addr); }
    void store(Addr, Word) override
    {
        panic("recovered-image client is read-only");
    }
    void txBegin() override {}
    void txEnd() override {}

  private:
    const WordStore &_media;
};

constexpr SchemeKind testedSchemes[] = {
    SchemeKind::Base, SchemeKind::Fwb, SchemeKind::MorLog,
    SchemeKind::Lad, SchemeKind::Silo, SchemeKind::SwEadr,
};

std::string
schemeTestName(const ::testing::TestParamInfo<SchemeKind> &info)
{
    std::string name = schemeName(info.param);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

class SemanticRecovery : public ::testing::TestWithParam<SchemeKind>
{
  protected:
    /** Crash a run at several points; return the recovered media. */
    template <typename Check>
    void
    sweepCrashes(workload::WorkloadKind kind, Check check)
    {
        for (std::uint64_t crash_at : {300u, 2500u, 12000u, 60000u}) {
            workload::TraceGenConfig tg;
            tg.kind = kind;
            tg.numThreads = 2;
            tg.transactionsPerThread = 40;
            tg.seed = 17;
            auto traces = workload::generateTraces(tg);

            SimConfig cfg;
            cfg.numCores = 2;
            cfg.scheme = GetParam();
            cfg.logBufferEntries = 12;   // provoke Silo overflow too
            System sys(cfg, traces);
            sys.runEvents(crash_at);
            sys.crash();
            sys.recover();
            check(sys, crash_at);
        }
    }
};

TEST_P(SemanticRecovery, BankConservesTotalBalance)
{
    // Reconstruct the workload objects so their internal base
    // addresses match the traced run (deterministic allocation).
    sweepCrashes(workload::WorkloadKind::Bank,
                 [](System &sys, std::uint64_t crash_at) {
        MediaClient media(sys.pm().media());
        for (unsigned t = 0; t < 2; ++t) {
            workload::BankWorkload bank;
            workload::PmHeap heap = workload::PmHeap::forThread(t);
            Rng rng(17 * 1000003 + t);
            // setup() re-derives the same addresses; writes go through
            // a scratch memory we discard.
            WordStore scratch;
            class ScratchClient : public workload::MemClient
            {
              public:
                explicit ScratchClient(WordStore &s) : _s(s) {}
                Word load(Addr a) override { return _s.load(a); }
                void store(Addr a, Word v) override { _s.store(a, v); }
                void txBegin() override {}
                void txEnd() override {}

              private:
                WordStore &_s;
            } scratch_client(scratch);
            bank.setup(scratch_client, heap, rng);

            Word expected = Word(bank.numAccounts()) * 1000;
            Word total = bank.totalBalance(media);
            EXPECT_EQ(total, expected)
                << "thread " << t << " crash@" << crash_at
                << " under " << schemeName(GetParam());
        }
    });
}

TEST_P(SemanticRecovery, RBtreeInvariantsHoldAfterRecovery)
{
    sweepCrashes(workload::WorkloadKind::RBtree,
                 [](System &sys, std::uint64_t crash_at) {
        MediaClient media(sys.pm().media());
        for (unsigned t = 0; t < 2; ++t) {
            workload::RBtreeWorkload tree(1 << 20);
            workload::PmHeap heap = workload::PmHeap::forThread(t);
            Rng rng(17 * 1000003 + t);
            WordStore scratch;
            scratch.loadImage(sys.pm().media());
            class RwClient : public workload::MemClient
            {
              public:
                explicit RwClient(WordStore &s) : _s(s) {}
                Word load(Addr a) override { return _s.load(a); }
                void store(Addr a, Word v) override { _s.store(a, v); }
                void txBegin() override {}
                void txEnd() override {}

              private:
                WordStore &_s;
            } setup_client(scratch);
            // Rebuild the object's root pointer address via setup on a
            // scratch copy, then validate against the real image.
            tree.setup(setup_client, heap, rng);
            EXPECT_GT(tree.validate(media), 0u)
                << "thread " << t << " crash@" << crash_at
                << " under " << schemeName(GetParam());
        }
    });
}

TEST_P(SemanticRecovery, QueueCountMatchesReachableChain)
{
    sweepCrashes(workload::WorkloadKind::Queue,
                 [](System &sys, std::uint64_t crash_at) {
        MediaClient media(sys.pm().media());
        for (unsigned t = 0; t < 2; ++t) {
            // The queue control block is the first line of the arena:
            // [0] head, [1] tail, [2] count.
            Addr control = addr_map::dataArenaBase(t);
            Word head = media.load(control);
            Word count = media.load(control + 2 * wordBytes);
            // Walk the chain from head; it must contain exactly
            // `count` nodes and terminate.
            Word walked = 0;
            for (Word node = head; node && walked <= count + 1;
                 node = media.load(node)) {
                ++walked;
            }
            EXPECT_EQ(walked, count)
                << "thread " << t << " crash@" << crash_at
                << " under " << schemeName(GetParam());
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Schemes, SemanticRecovery,
                         ::testing::ValuesIn(testedSchemes),
                         schemeTestName);

TEST(Determinism, IdenticalConfigGivesIdenticalRun)
{
    auto run_once = [] {
        workload::TraceGenConfig tg;
        tg.kind = workload::WorkloadKind::Tpcc;
        tg.numThreads = 4;
        tg.transactionsPerThread = 50;
        auto traces = workload::generateTraces(tg);
        SimConfig cfg;
        cfg.numCores = 4;
        cfg.scheme = SchemeKind::Silo;
        System sys(cfg, traces);
        sys.finish();
        return sys.report();
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.mediaWordWrites, b.mediaWordWrites);
    EXPECT_EQ(a.commitStallCycles, b.commitStallCycles);
    EXPECT_EQ(a.wpqAcceptedBytes, b.wpqAcceptedBytes);
}

} // namespace
} // namespace silo::harness
