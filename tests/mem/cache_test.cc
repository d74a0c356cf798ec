/** @file Unit tests for the cache level and the hierarchy. */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"
#include "nvm/pm_device.hh"

namespace silo::mem
{
namespace
{

CacheConfig tiny{1024, 2, 4};   // 16 lines, 8 sets x 2 ways

TEST(Cache, HitAfterInsert)
{
    Cache c("c", tiny);
    EXPECT_FALSE(c.access(0x1000, false));
    c.insert(0x1000, false);
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, WriteSetsDirty)
{
    Cache c("c", tiny);
    c.insert(0x1000, false);
    EXPECT_FALSE(c.isDirty(0x1000));
    c.access(0x1000, true);
    EXPECT_TRUE(c.isDirty(0x1000));
    c.clean(0x1000);
    EXPECT_FALSE(c.isDirty(0x1000));
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache c("c", tiny);
    // Three lines in the same set (stride = 8 sets * 64B).
    Addr a = 0x0000, b = 0x2000, d = 0x4000;
    EXPECT_FALSE(c.insert(a, true).has_value());
    EXPECT_FALSE(c.insert(b, false).has_value());
    c.access(a, false);   // a is now MRU
    auto victim = c.insert(d, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, b);
    EXPECT_FALSE(victim->dirty);
    EXPECT_TRUE(c.contains(a));
}

TEST(Cache, DirtyVictimReported)
{
    Cache c("c", tiny);
    c.insert(0x0000, true);
    c.insert(0x2000, false);
    auto victim = c.insert(0x4000, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, 0x0000u);
    EXPECT_TRUE(victim->dirty);
}

TEST(Cache, ExtractRemovesLine)
{
    Cache c("c", tiny);
    c.insert(0x1000, true);
    auto state = c.extract(0x1000);
    ASSERT_TRUE(state.has_value());
    EXPECT_TRUE(state->dirty);
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.extract(0x1000).has_value());
}

TEST(Cache, DirtyLinesEnumerated)
{
    Cache c("c", tiny);
    // Distinct sets so nothing evicts.
    c.insert(0x1000, true);
    c.insert(0x1040, false);
    c.insert(0x1080, true);
    std::vector<Addr> dirty;
    c.forEachDirtyLine([&dirty](Addr line) { dirty.push_back(line); });
    EXPECT_EQ(dirty, (std::vector<Addr>{0x1000, 0x1080}));
}

TEST(Cache, DoubleInsertPanics)
{
    Cache c("c", tiny);
    c.insert(0x1000, false);
    EXPECT_THROW(c.insert(0x1000, false), PanicError);
}

TEST(Cache, BadGeometryIsFatal)
{
    CacheConfig bad{1024, 7, 4};   // 16 lines not divisible by 7 ways
    EXPECT_THROW(Cache("c", bad), FatalError);
}

// --- Hierarchy ---------------------------------------------------------

struct HierFixture
{
    SimConfig cfg;
    EventQueue eq;
    std::unique_ptr<PersistentDomain> domain;
    WordStore values;
    std::unique_ptr<nvm::PmDevice> pm;
    std::unique_ptr<mc::McRouter> mc;
    std::unique_ptr<CacheHierarchy> hier;

    HierFixture()
    {
        cfg.numCores = 2;
        cfg.l1d = {512, 2, 4};    // 8 lines
        cfg.l2 = {1024, 2, 12};   // 16 lines
        cfg.l3 = {2048, 2, 28};   // 32 lines
        domain = std::make_unique<PersistentDomain>(cfg);
        pm = std::make_unique<nvm::PmDevice>(eq, cfg, *domain);
        mc = std::make_unique<mc::McRouter>(eq, cfg, *pm, *domain);
        hier = std::make_unique<CacheHierarchy>(
            eq, cfg, *mc, [this](Addr a) { return values.load(a); });
    }

    /** Run one access to completion and return its latency. */
    Cycles
    timedAccess(unsigned core, Addr addr, bool write)
    {
        Tick start = eq.now();
        bool done = false;
        Tick end = 0;
        hier->access(core, addr, write, [&] {
            done = true;
            end = eq.now();
        });
        eq.run();
        EXPECT_TRUE(done);
        return end - start;
    }
};

TEST(Hierarchy, L1HitIsFourCycles)
{
    HierFixture f;
    f.timedAccess(0, 0x1000, false);           // cold miss
    Cycles lat = f.timedAccess(0, 0x1000, false);
    EXPECT_EQ(lat, 4u);
}

TEST(Hierarchy, ColdMissGoesToMemory)
{
    HierFixture f;
    Cycles lat = f.timedAccess(0, 0x1000, false);
    // l1 + l2 + l3 + pm read + forwarding overhead.
    EXPECT_GE(lat, 4u + 12 + 28 + nvm::pmReadCycles);
}

TEST(Hierarchy, StoreMakesLineDirtyInL1)
{
    HierFixture f;
    f.timedAccess(0, 0x1000, true);
    EXPECT_TRUE(f.hier->l1(0).isDirty(0x1000));
    EXPECT_TRUE(f.hier->isDirty(0, 0x1000));
}

TEST(Hierarchy, DirtyLineWritesBackOnCapacityEviction)
{
    HierFixture f;
    // Dirty one line, then stream enough lines to push it out of all
    // three levels (32 L3 lines).
    f.values.store(0x0000, 1234);
    f.timedAccess(0, 0x0000, true);
    for (Addr a = 0x10000; a < 0x10000 + 64 * lineBytes; a += lineBytes)
        f.timedAccess(0, a, false);
    f.eq.run();
    f.mc->drainAll();
    EXPECT_EQ(f.pm->media().load(0x0000), 1234u);
}

TEST(Hierarchy, FlushLineWritesValuesAndCleans)
{
    HierFixture f;
    f.values.store(0x3000, 99);
    f.timedAccess(0, 0x3000, true);
    ASSERT_TRUE(f.hier->isDirty(0, 0x3000));

    bool accepted = false;
    f.hier->flushLine(0, 0x3000, false, [&] { accepted = true; });
    f.eq.run();
    EXPECT_TRUE(accepted);
    EXPECT_FALSE(f.hier->isDirty(0, 0x3000));
    f.mc->drainAll();
    EXPECT_EQ(f.pm->media().load(0x3000), 99u);
}

TEST(Hierarchy, PerCoreCachesAreIndependent)
{
    HierFixture f;
    f.timedAccess(0, 0x1000, true);
    EXPECT_FALSE(f.hier->l1(1).contains(0x1000));
    Cycles lat = f.timedAccess(1, 0x2000, false);
    EXPECT_GT(lat, 4u);
}

TEST(Hierarchy, InvalidateAllDropsEverything)
{
    HierFixture f;
    f.timedAccess(0, 0x1000, true);
    f.hier->invalidateAll();
    EXPECT_FALSE(f.hier->l1(0).contains(0x1000));
    EXPECT_TRUE(f.hier->allDirtyLines().empty());
}

TEST(Hierarchy, EvictionHeldPredicateMarksHeldEntries)
{
    HierFixture f;
    f.hier->setEvictionHeldPredicate([](Addr) { return true; });
    f.timedAccess(0, 0x0000, true);
    for (Addr a = 0x10000; a < 0x10000 + 64 * lineBytes; a += lineBytes)
        f.timedAccess(0, a, false);
    EXPECT_GE(f.mc->heldEntries(), 1u);
}

} // namespace
} // namespace silo::mem
