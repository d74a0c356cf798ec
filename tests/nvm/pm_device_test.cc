/** @file Unit tests for the PM device: buffer coalescing, DCW, banks. */

#include <gtest/gtest.h>

#include "nvm/pm_device.hh"

namespace silo::nvm
{
namespace
{

SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.onPmBufferLines = 2;
    cfg.pmBanks = 2;
    return cfg;
}

TEST(PmDevice, WriteReachesMediaAfterDrain)
{
    EventQueue eq;
    SimConfig cfg = tinyConfig();
    PersistentDomain domain(cfg);
    PmDevice pm(eq, cfg, domain);

    ASSERT_TRUE(pm.tryWrite(0x1000, {{0, 42}, {3, 7}}, false));
    drainBuffer(domain, &pm.pmStats());
    EXPECT_EQ(pm.media().load(0x1000), 42u);
    EXPECT_EQ(pm.media().load(0x1018), 7u);
    EXPECT_EQ(pm.mediaWordWrites(), 2u);
}

TEST(PmDevice, CoalescesIntoResidentLine)
{
    EventQueue eq;
    SimConfig cfg = tinyConfig();
    PersistentDomain domain(cfg);
    PmDevice pm(eq, cfg, domain);

    ASSERT_TRUE(pm.tryWrite(0x1000, {{0, 1}}, false));
    ASSERT_TRUE(pm.tryWrite(0x1000, {{1, 2}}, false));
    ASSERT_TRUE(pm.tryWrite(0x1000, {{0, 3}}, false));   // overwrite
    EXPECT_EQ(pm.bufferCoalescedWrites(), 2u);
    drainBuffer(domain, &pm.pmStats());
    EXPECT_EQ(pm.media().load(0x1000), 3u);
    EXPECT_EQ(pm.media().load(0x1008), 2u);
    // One line, two distinct words: the overwrite never hit the media.
    EXPECT_EQ(pm.mediaWordWrites(), 2u);
}

TEST(PmDevice, DcwSuppressesUnchangedWords)
{
    EventQueue eq;
    SimConfig cfg = tinyConfig();
    PersistentDomain domain(cfg);
    PmDevice pm(eq, cfg, domain);

    ASSERT_TRUE(pm.tryWrite(0x1000, {{0, 5}, {1, 6}}, false));
    drainBuffer(domain, &pm.pmStats());
    EXPECT_EQ(pm.mediaWordWrites(), 2u);

    // Rewrite the same values plus one changed word.
    ASSERT_TRUE(pm.tryWrite(0x1000, {{0, 5}, {1, 6}, {2, 7}}, false));
    drainBuffer(domain, &pm.pmStats());
    EXPECT_EQ(pm.mediaWordWrites(), 3u);
    EXPECT_EQ(pm.dcwSuppressedWords(), 2u);
}

TEST(PmDevice, LogRegionWordsAlwaysWrite)
{
    EventQueue eq;
    SimConfig cfg = tinyConfig();
    PersistentDomain domain(cfg);
    PmDevice pm(eq, cfg, domain);

    ASSERT_TRUE(pm.tryWrite(0x2000, {{0, 0}, {1, 0}}, true));
    drainBuffer(domain, &pm.pmStats());
    EXPECT_EQ(pm.logRegionWordWrites(), 2u);
    EXPECT_EQ(pm.mediaWordWrites(), 2u);
}

TEST(PmDevice, EvictionFreesSlotAfterBankBusy)
{
    EventQueue eq;
    SimConfig cfg = tinyConfig();
    PersistentDomain domain(cfg);
    PmDevice pm(eq, cfg, domain);

    // Fill both lines, then a third distinct line forces an eviction.
    ASSERT_TRUE(pm.tryWrite(0x1000, {{0, 1}}, false));
    ASSERT_TRUE(pm.tryWrite(0x2000, {{0, 2}}, false));
    EXPECT_FALSE(pm.tryWrite(0x3000, {{0, 3}}, false));

    bool notified = false;
    pm.registerSlotWaiter([&] { notified = true; });
    eq.run();
    EXPECT_TRUE(notified);
    EXPECT_TRUE(pm.tryWrite(0x3000, {{0, 3}}, false));
    EXPECT_GE(pm.mediaWordWrites(), 1u);
}

TEST(PmDevice, AllZeroChangeEvictionIsFree)
{
    EventQueue eq;
    SimConfig cfg = tinyConfig();
    PersistentDomain domain(cfg);
    PmDevice pm(eq, cfg, domain);
    pm.media().store(0x1000, 9);

    // Writing the value already in media: DCW cancels the media write.
    ASSERT_TRUE(pm.tryWrite(0x1000, {{0, 9}}, false));
    drainBuffer(domain, &pm.pmStats());
    EXPECT_EQ(pm.mediaWordWrites(), 0u);
    EXPECT_EQ(pm.mediaLineWrites(), 0u);
    EXPECT_EQ(pm.dcwSuppressedWords(), 1u);
}

TEST(PmDevice, ReadHitsBufferFast)
{
    EventQueue eq;
    SimConfig cfg = tinyConfig();
    PersistentDomain domain(cfg);
    PmDevice pm(eq, cfg, domain);

    ASSERT_TRUE(pm.tryWrite(0x1000, {{0, 1}}, false));
    Tick hit = pm.read(0x1000);
    EXPECT_LE(hit, eq.now() + 10);
    EXPECT_EQ(pm.bufferReadHits(), 1u);

    Tick miss = pm.read(0x9000);
    EXPECT_GE(miss, eq.now() + pmReadCycles);
    EXPECT_EQ(pm.mediaReads(), 1u);
}

TEST(PmDevice, BankContentionSerializesReads)
{
    EventQueue eq;
    SimConfig cfg = tinyConfig();   // 2 banks
    PersistentDomain domain(cfg);
    PmDevice pm(eq, cfg, domain);

    // Same bank: the second read starts after the first's occupancy
    // window (reads pipeline; only the sensing slot serializes).
    Tick first = pm.read(0x1000);
    Tick second = pm.read(0x1000);
    EXPECT_EQ(first, eq.now() + pmReadCycles);
    EXPECT_EQ(second, first + pmReadOccupancyCycles);

    // Different bank proceeds in parallel.
    Tick other = pm.read(0x1100);
    EXPECT_EQ(other, eq.now() + pmReadCycles);
}

TEST(PmDevice, WriteBusyScalesWithWordCount)
{
    EventQueue eq;
    SimConfig cfg = tinyConfig();
    cfg.onPmBufferLines = 1;
    PersistentDomain domain(cfg);
    PmDevice pm(eq, cfg, domain);

    ASSERT_TRUE(pm.tryWrite(0x1000, {{0, 1}}, false));
    // Force eviction by writing another line.
    EXPECT_FALSE(pm.tryWrite(0x2000, {{0, 2}, {1, 3}, {2, 4}}, false));
    // One word: base + 1*perWord.
    eq.run();
    Tick one_word_done = eq.now();
    EXPECT_EQ(one_word_done,
              pmWriteBaseCycles + pmWritePerWordCycles);
}

} // namespace
} // namespace silo::nvm
