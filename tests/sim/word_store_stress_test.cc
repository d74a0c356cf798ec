/**
 * @file
 * WordStore stress/fuzz tests against an std::unordered_map oracle:
 * randomized store/load/operator[]/loadImage across directory growth
 * boundaries and page edges (first/last word of a page, adjacent
 * pages, 48-bit address extremes), plus the deterministic-iteration
 * contract — words() and begin()/end() enumerate written words in
 * ascending address order regardless of insertion order, which the
 * crash-image comparisons in src/check/ and the golden-JSON sweep
 * test rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/word_store.hh"

namespace silo
{
namespace
{

constexpr Addr pageBytes = 4096;
/** Top of the 48-bit physical address space, word-aligned. */
constexpr Addr addrTop = (Addr(1) << 48) - wordBytes;

/** Compare a store against its oracle exactly. */
void
expectMatchesOracle(const WordStore &store,
                    const std::unordered_map<Addr, Word> &oracle)
{
    ASSERT_EQ(store.size(), oracle.size());
    ASSERT_EQ(store.footprintWords(), oracle.size());
    // silo-lint: allow(nondet-iteration) per-key containment checks; pass/fail is independent of visit order
    for (const auto &[addr, value] : oracle) {
        ASSERT_TRUE(store.contains(addr)) << std::hex << addr;
        ASSERT_EQ(store.load(addr), value) << std::hex << addr;
    }
    // And the reverse direction via iteration: nothing extra, sorted.
    Addr prev = 0;
    bool first = true;
    std::size_t seen = 0;
    for (const auto &[addr, value] : store) {
        if (!first) {
            ASSERT_LT(prev, addr) << "iteration must ascend";
        }
        first = false;
        prev = addr;
        auto it = oracle.find(addr);
        ASSERT_NE(it, oracle.end()) << std::hex << addr;
        ASSERT_EQ(it->second, value) << std::hex << addr;
        ++seen;
    }
    ASSERT_EQ(seen, oracle.size());
}

TEST(WordStoreStress, RandomOpsMatchUnorderedMapOracle)
{
    std::mt19937_64 rng(20230307);
    WordStore store;
    std::unordered_map<Addr, Word> oracle;

    // A few hot pages plus a wide sparse range, so lookups exercise
    // both the hit cache and cold directory probes, and page count
    // crosses several directory growth boundaries.
    std::vector<Addr> page_bases;
    for (int i = 0; i < 400; ++i) {
        Addr base = (rng() % (Addr(1) << 36)) * pageBytes;
        page_bases.push_back(base);
    }

    for (int op = 0; op < 200'000; ++op) {
        Addr base = page_bases[rng() % page_bases.size()];
        Addr addr = base + (rng() % (pageBytes / wordBytes)) * wordBytes;
        switch (rng() % 4) {
          case 0: case 1: {
            Word v = rng();
            store.store(addr, v);
            oracle[addr] = v;
            break;
          }
          case 2:
            ASSERT_EQ(store.load(addr),
                      oracle.count(addr) ? oracle[addr] : 0)
                << std::hex << addr;
            break;
          default:
            ASSERT_EQ(store.contains(addr), oracle.count(addr) != 0);
            break;
        }
    }
    expectMatchesOracle(store, oracle);
}

TEST(WordStoreStress, PageEdgesAndAdjacentPages)
{
    WordStore store;
    std::unordered_map<Addr, Word> oracle;
    const Addr bases[] = {
        0,                      // very first page
        pageBytes,              // adjacent page
        pageBytes * 2,
        Addr(1) << 30,
        (Addr(1) << 30) + pageBytes,
        addrTop + wordBytes - pageBytes,   // last full page
    };
    for (Addr base : bases) {
        // First and last word of the page, plus both sides of each
        // page boundary.
        for (Addr a : {base, base + wordBytes,
                       base + pageBytes - 2 * wordBytes,
                       base + pageBytes - wordBytes}) {
            Word v = a * 2654435761u + 1;
            store.store(a, v);
            oracle[a] = v;
        }
    }
    expectMatchesOracle(store, oracle);
    // Last word of one page and first of the next are distinct.
    EXPECT_NE(store.load(pageBytes - wordBytes), store.load(pageBytes));
}

TEST(WordStoreStress, FortyEightBitExtremes)
{
    WordStore store;
    store.store(0, 11);
    store.store(addrTop, 22);
    store.store(addrTop - wordBytes, 33);
    EXPECT_EQ(store.load(0), 11u);
    EXPECT_EQ(store.load(addrTop), 22u);
    EXPECT_EQ(store.load(addrTop - wordBytes), 33u);
    EXPECT_EQ(store.footprintWords(), 3u);
    EXPECT_FALSE(store.contains(wordBytes));

    auto snapshot = store.words();
    ASSERT_EQ(snapshot.size(), 3u);
    EXPECT_EQ(snapshot[0].first, 0u);
    EXPECT_EQ(snapshot[1].first, addrTop - wordBytes);
    EXPECT_EQ(snapshot[2].first, addrTop);
}

TEST(WordStoreStress, LoadImageOverlaysAndCounts)
{
    WordStore a;
    a.store(0x1000, 1);
    a.store(0x2000, 2);
    WordStore b;
    b.store(0x2000, 20);   // overlap: b's value must win in a
    b.store(0x3000, 30);
    a.loadImage(b);
    EXPECT_EQ(a.load(0x1000), 1u);
    EXPECT_EQ(a.load(0x2000), 20u);
    EXPECT_EQ(a.load(0x3000), 30u);
    EXPECT_EQ(a.footprintWords(), 3u);

    // Map-image overload and converting constructor.
    std::unordered_map<Addr, Word> image{{0x4000, 4}, {0x1000, 10}};
    a.loadImage(image);
    EXPECT_EQ(a.load(0x1000), 10u);
    EXPECT_EQ(a.load(0x4000), 4u);
    EXPECT_EQ(a.footprintWords(), 4u);

    WordStore c = image;
    EXPECT_EQ(c.load(0x4000), 4u);
    EXPECT_EQ(c.size(), 2u);
}

TEST(WordStoreStress, SubscriptInsertsZeroLikeUnorderedMap)
{
    WordStore store;
    EXPECT_EQ(store[0x1000], 0u);
    EXPECT_EQ(store.size(), 1u) << "operator[] must default-insert";
    EXPECT_TRUE(store.contains(0x1000));
    store[0x1000] = 7;
    EXPECT_EQ(store.load(0x1000), 7u);
    EXPECT_EQ(store.size(), 1u);

    // Storing zero explicitly still counts toward the footprint.
    store.store(0x2000, 0);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.contains(0x2000));
}

TEST(WordStoreStress, IterationOrderIndependentOfInsertionOrder)
{
    std::mt19937_64 rng(7);
    std::vector<Addr> addrs;
    for (int i = 0; i < 5000; ++i)
        addrs.push_back((rng() % (Addr(1) << 40)) / wordBytes *
                        wordBytes);

    WordStore forward;
    for (Addr a : addrs)
        forward.store(a, a + 1);
    WordStore shuffled;
    std::shuffle(addrs.begin(), addrs.end(), rng);
    for (Addr a : addrs)
        shuffled.store(a, a + 1);

    auto fw = forward.words();
    auto sw = shuffled.words();
    ASSERT_EQ(fw, sw)
        << "words() must be a pure function of contents";
    ASSERT_TRUE(std::is_sorted(fw.begin(), fw.end()));
}

TEST(WordStoreStress, UnalignedAccessPanics)
{
    WordStore store;
    EXPECT_THROW(store.store(0x1001, 1), PanicError);
    EXPECT_THROW((void)store.load(0x7), PanicError);
    EXPECT_THROW((void)store.contains(0x1234567), PanicError);
}

} // namespace
} // namespace silo
