/** @file Unit tests for the memory controller / WPQ. */

#include <gtest/gtest.h>

#include "mc/mem_controller.hh"

namespace silo::mc
{
namespace
{

struct Fixture
{
    SimConfig cfg;
    EventQueue eq;
    std::unique_ptr<PersistentDomain> domain;
    std::unique_ptr<nvm::PmDevice> pm;
    std::unique_ptr<MemController> mc;

    explicit Fixture(unsigned wpq_entries = 4)
    {
        cfg.wpqEntries = wpq_entries;
        cfg.onPmBufferLines = 64;
        domain = std::make_unique<PersistentDomain>(cfg);
        pm = std::make_unique<nvm::PmDevice>(eq, cfg, *domain);
        mc = std::make_unique<MemController>(eq, cfg, *pm,
                                             domain->mcs[0], logs());
    }

    log::LogRegionStore &logs() { return domain->logs; }
};

std::array<Word, wordsPerLine>
lineOf(Word base)
{
    std::array<Word, wordsPerLine> v;
    for (unsigned i = 0; i < wordsPerLine; ++i)
        v[i] = base + i;
    return v;
}

TEST(MemController, LineWriteDrainsToMedia)
{
    Fixture f;
    ASSERT_TRUE(f.mc->tryWriteLine(0x1000, lineOf(100), true));
    f.eq.run();
    f.mc->drainAll();
    EXPECT_EQ(f.pm->media().load(0x1000), 100u);
    EXPECT_EQ(f.pm->media().load(0x1038), 107u);
}

TEST(MemController, WordWriteDrainsToMedia)
{
    Fixture f;
    ASSERT_TRUE(f.mc->tryWriteWord(0x2008, 77));
    f.eq.run();
    f.mc->drainAll();
    EXPECT_EQ(f.pm->media().load(0x2008), 77u);
}

TEST(MemController, SameLineWritesCoalesce)
{
    Fixture f(2);
    ASSERT_TRUE(f.mc->tryWriteWord(0x1000, 1));
    ASSERT_TRUE(f.mc->tryWriteWord(0x1008, 2));   // same 64B line
    EXPECT_EQ(f.mc->coalescedWrites(), 1u);
    EXPECT_EQ(f.mc->acceptedWrites(), 1u);
}

TEST(MemController, FullWpqRejectsAndNotifiesWaiter)
{
    Fixture f(2);
    ASSERT_TRUE(f.mc->tryWriteLine(0x1000, lineOf(0), false));
    ASSERT_TRUE(f.mc->tryWriteLine(0x2000, lineOf(0), false));
    EXPECT_FALSE(f.mc->tryWriteLine(0x3000, lineOf(0), false));
    EXPECT_EQ(f.mc->fullStalls(), 1u);

    bool woke = false;
    f.mc->requestWriteSlot([&] { woke = true; });
    f.eq.run();
    EXPECT_TRUE(woke);
}

TEST(MemController, LogWriteIsDurableAtAccept)
{
    Fixture f;
    log::LogRecord rec;
    rec.kind = log::LogRecord::Kind::UndoRedo;
    rec.tid = 3;
    rec.txid = 9;
    rec.dataAddr = 0xabc0;
    rec.oldData = 1;
    rec.newData = 2;

    Addr addr = f.logs().allocate(3, rec.sizeBytes());
    bool accepted = false;
    f.mc->writeLog(addr, rec, [&] { accepted = true; });
    ASSERT_TRUE(accepted);
    // Durable immediately — visible even before any drain.
    auto live = f.logs().liveRecords(3);
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].second.txid, 9);
    EXPECT_EQ(live[0].second.newData, 2u);
}

TEST(MemController, FullWpqParksLogRecordInAdrLogPath)
{
    log::LogRecord rec;
    rec.kind = log::LogRecord::Kind::Undo;
    rec.tid = 1;
    rec.txid = 4;
    rec.dataAddr = 0x3000;
    rec.oldData = 5;

    // Crash while the record waits: the log path persists it.
    {
        Fixture f(2);
        ASSERT_TRUE(f.mc->tryWriteLine(0x1000, lineOf(0), false));
        ASSERT_TRUE(f.mc->tryWriteLine(0x2000, lineOf(0), false));
        Addr addr = f.logs().allocate(1, rec.sizeBytes());
        bool accepted = false;
        f.mc->writeLog(addr, rec, [&] { accepted = true; });
        EXPECT_FALSE(accepted);
        EXPECT_TRUE(f.logs().liveRecords(1).empty());

        flushLogPath(f.domain->mcs[0], f.logs());
        auto live = f.logs().liveRecords(1);
        ASSERT_EQ(live.size(), 1u);
        EXPECT_EQ(live[0].first, addr);
        EXPECT_EQ(live[0].second.oldData, 5u);
        EXPECT_FALSE(accepted);
    }
    // No crash: the WPQ accepts it once a slot frees.
    {
        Fixture f(2);
        ASSERT_TRUE(f.mc->tryWriteLine(0x1000, lineOf(0), false));
        ASSERT_TRUE(f.mc->tryWriteLine(0x2000, lineOf(0), false));
        Addr addr = f.logs().allocate(1, rec.sizeBytes());
        unsigned accepted = 0;
        f.mc->writeLog(addr, rec, [&] { ++accepted; });
        EXPECT_EQ(accepted, 0u);
        f.eq.run();
        EXPECT_EQ(accepted, 1u);
        EXPECT_EQ(f.logs().liveRecords(1).size(), 1u);
    }
}

TEST(MemController, EvictionObserverFiresOnEvictedLines)
{
    Fixture f;
    std::vector<Addr> seen;
    f.mc->setEvictionObserver([&](Addr a) { seen.push_back(a); });
    ASSERT_TRUE(f.mc->tryWriteLine(0x1000, lineOf(0), true));
    ASSERT_TRUE(f.mc->tryWriteLine(0x2000, lineOf(0), false));
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 0x1000u);
}

TEST(MemController, HeldEntriesDoNotDrainUntilReleased)
{
    Fixture f;
    ASSERT_TRUE(f.mc->tryWriteLine(0x1000, lineOf(50), false, true));
    EXPECT_EQ(f.mc->heldEntries(), 1u);
    f.eq.run();
    f.pm->drainAll();
    EXPECT_EQ(f.pm->media().load(0x1000), 0u);   // not drained

    f.mc->releaseHeld(0x1000);
    EXPECT_EQ(f.mc->heldEntries(), 0u);
    f.eq.run();
    f.mc->drainAll();
    EXPECT_EQ(f.pm->media().load(0x1000), 50u);
}

TEST(MemController, CrashDropsHeldAndDrainsRest)
{
    Fixture f;
    ASSERT_TRUE(f.mc->tryWriteLine(0x1000, lineOf(10), false, false));
    ASSERT_TRUE(f.mc->tryWriteLine(0x2000, lineOf(20), false, true));
    crashDrain(f.domain->mcs[0], *f.domain, f.eq.now(), nullptr,
               nullptr);
    EXPECT_EQ(f.pm->media().load(0x1000), 10u);   // ADR drained
    EXPECT_EQ(f.pm->media().load(0x2000), 0u);    // held discarded
}

TEST(MemController, ReadForwardsFromWpq)
{
    Fixture f;
    ASSERT_TRUE(f.mc->tryWriteLine(0x1000, lineOf(1), false));
    bool done = false;
    Tick when = 0;
    f.mc->read(0x1000, [&] {
        done = true;
        when = f.eq.now();
    });
    f.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(f.mc->readForwards(), 1u);
    EXPECT_LE(when, 10u);
}

TEST(MemController, ReadMissGoesToDevice)
{
    Fixture f;
    bool done = false;
    Tick when = 0;
    f.mc->read(0x5000, [&] {
        done = true;
        when = f.eq.now();
    });
    f.eq.run();
    EXPECT_TRUE(done);
    EXPECT_GE(when, f.cfg.pmReadCycles);
}

} // namespace
} // namespace silo::mc
