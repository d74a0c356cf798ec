/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace silo::stats
{
namespace
{

// A stat lives where its group keeps a pointer to it.
static_assert(!std::is_copy_constructible_v<Scalar> &&
              !std::is_move_constructible_v<Scalar>);
static_assert(!std::is_copy_constructible_v<Average> &&
              !std::is_move_constructible_v<Average>);
static_assert(!std::is_copy_constructible_v<Distribution> &&
              !std::is_move_constructible_v<Distribution>);

TEST(Scalar, CountsAndResets)
{
    StatGroup g;
    Scalar s(g, "writes");
    ++s;
    s += 41;
    EXPECT_EQ(s.value(), 42u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Average, MeanMinMax)
{
    StatGroup g;
    Average a(g, "lat");
    a.sample(10);
    a.sample(20);
    a.sample(60);
    EXPECT_DOUBLE_EQ(a.mean(), 30.0);
    EXPECT_DOUBLE_EQ(a.minimum(), 10.0);
    EXPECT_DOUBLE_EQ(a.maximum(), 60.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Average, EmptyIsZero)
{
    StatGroup g;
    Average a(g, "x");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.minimum(), 0.0);
    EXPECT_DOUBLE_EQ(a.maximum(), 0.0);
}

TEST(Average, ResetClears)
{
    StatGroup g;
    Average a(g, "x");
    a.sample(5);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Distribution, BucketsAndOverflow)
{
    StatGroup g;
    Distribution d(g, "sz", 10, 4);
    d.sample(0);
    d.sample(9);
    d.sample(10);
    d.sample(35);
    d.sample(40);     // overflow
    d.sample(1000);   // overflow
    ASSERT_EQ(d.buckets().size(), 4u);
    EXPECT_EQ(d.buckets()[0], 2u);
    EXPECT_EQ(d.buckets()[1], 1u);
    EXPECT_EQ(d.buckets()[2], 0u);
    EXPECT_EQ(d.buckets()[3], 1u);
    EXPECT_EQ(d.overflow(), 2u);
    EXPECT_EQ(d.summary().count(), 6u);
}

TEST(Distribution, ZeroWidthIsClampedToOne)
{
    StatGroup g;
    Distribution d(g, "sz", 0, 2);
    d.sample(1);
    EXPECT_EQ(d.buckets()[1], 1u);
}

TEST(Distribution, PercentileBucketEdges)
{
    // Buckets [0,9] [10,19] [20,29] [30,39], overflow >= 40.
    StatGroup g;
    Distribution d(g, "lat", 10, 4);
    for (std::uint64_t v : {5, 7, 15, 25, 100})
        d.sample(v);
    // rank(0.2 * 5) = 1 lands in bucket 0: upper edge 9.
    EXPECT_EQ(d.percentile(0.2), 9u);
    // rank(0.5 * 5) = 3 lands in bucket 1: upper edge 19.
    EXPECT_EQ(d.p50(), 19u);
    // rank(0.99 * 5) = 5 lands in the overflow bucket: the observed
    // maximum is the tightest bound the histogram still knows.
    EXPECT_EQ(d.p99(), 100u);
}

TEST(Distribution, PercentileClampsToObservedMax)
{
    // All samples sit well inside bucket 0; the bucket's upper edge
    // (9) would overestimate, so the observed max wins.
    StatGroup g;
    Distribution d(g, "lat", 10, 4);
    d.sample(4);
    d.sample(4);
    EXPECT_EQ(d.p50(), 4u);
    EXPECT_EQ(d.p99(), 4u);
}

TEST(Distribution, PercentileEmptyIsZero)
{
    StatGroup g;
    Distribution d(g, "lat", 10, 4);
    EXPECT_EQ(d.p50(), 0u);
    EXPECT_EQ(d.p99(), 0u);
}

TEST(Distribution, PercentileFracAboveOneIsClamped)
{
    StatGroup g;
    Distribution d(g, "lat", 10, 4);
    d.sample(12);
    EXPECT_EQ(d.percentile(2.0), 12u);
}

TEST(Distribution, CountsConsistentInvariant)
{
    StatGroup g;
    Distribution d(g, "sz", 10, 2);
    EXPECT_TRUE(d.countsConsistent());
    d.sample(5);
    d.sample(15);
    d.sample(999);  // overflow
    EXPECT_TRUE(d.countsConsistent());
    EXPECT_EQ(d.summary().count(), 3u);
    d.reset();
    EXPECT_TRUE(d.countsConsistent());
}

TEST(StatGroup, PrintJsonEmitsAllStatKinds)
{
    StatGroup g("l1d");
    Distribution d(g, "sz", 10, 2);
    Average a(g, "lat");
    Scalar s(g, "hits");
    s += 7;
    a.sample(4);
    d.sample(5);
    d.sample(25);  // overflow

    std::ostringstream os;
    g.printJson(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"hits\": 7"), std::string::npos);
    EXPECT_NE(text.find("\"lat\": {\"mean\": 4"), std::string::npos);
    // p50 rank 1 lands in bucket [0,9]: the bucket's upper edge.
    EXPECT_NE(text.find("\"p50\": 9"), std::string::npos);
    EXPECT_NE(text.find("\"buckets\": [1, 0]"), std::string::npos);
    EXPECT_NE(text.find("\"overflow\": 1"), std::string::npos);
    // Scalars, then averages, then distributions.
    EXPECT_LT(text.find("\"hits\""), text.find("\"lat\""));
    EXPECT_LT(text.find("\"lat\""), text.find("\"sz\""));
}

TEST(StatGroup, NameThatIsNotASchemaKeyPanics)
{
    StatGroup g("pm");
    for (const char *bad : {"", "Hits", "9lives", "wpq-writes", "a.b"})
        EXPECT_THROW(Scalar(g, bad), PanicError) << bad;
    EXPECT_THROW(Average(g, "Lat"), PanicError);
    EXPECT_THROW(Distribution(g, "sz ", 1, 2), PanicError);
    Scalar ok(g, "media_word_writes2");
    EXPECT_EQ(ok.name(), "media_word_writes2");
}

TEST(StatGroup, DuplicateNameInOneGroupPanics)
{
    StatGroup g("core0"), other("core1");
    Scalar s(g, "stalls");
    EXPECT_THROW(Scalar(g, "stalls"), PanicError);
    // One JSON object holds every kind, so the name is taken for all.
    EXPECT_THROW(Average(g, "stalls"), PanicError);
    EXPECT_THROW(Distribution(g, "stalls", 1, 2), PanicError);
    // Another group may reuse it.
    Scalar t(other, "stalls");
    std::ostringstream os;
    g.printJson(os);
    EXPECT_EQ(os.str(), "{\"stalls\": 0}");
}

TEST(StatRegistry, NestsSlashPaths)
{
    StatGroup mc0("mc0"), mc1("mc1");
    Scalar s0(mc0, "x"), s1(mc1, "x");
    s0 += 1;
    s1 += 2;

    StatRegistry reg;
    reg.add("mc/1", mc1);
    reg.add("mc/0", mc0);
    EXPECT_EQ(reg.size(), 2u);
    const std::string text = reg.toJson();
    EXPECT_NE(text.find("\"schema\": \"silo-stats-v1\""),
              std::string::npos);
    // Sorted by path regardless of registration order.
    EXPECT_NE(
        text.find("\"mc\": {\"0\": {\"x\": 1}, \"1\": {\"x\": 2}}"),
        std::string::npos);
}

TEST(StatRegistry, LeafThatIsAlsoPrefixKeepsStatsKey)
{
    StatGroup parent("mc"), child("mc0");
    Scalar s0(parent, "x"), s1(child, "x");

    StatRegistry reg;
    reg.add("mc", parent);
    reg.add("mc/0", child);
    const std::string text = reg.toJson();
    EXPECT_NE(
        text.find("\"mc\": {\"stats\": {\"x\": 0}, \"0\": {\"x\": 0}}"),
        std::string::npos);
}

TEST(StatRegistry, DuplicatePathPanics)
{
    StatGroup g("g");
    StatRegistry reg;
    reg.add("a/b", g);
    EXPECT_THROW(reg.add("a/b", g), PanicError);
}

TEST(StatGroup, ResetResetsAll)
{
    StatGroup g;
    Scalar s(g, "a");
    Average a(g, "b");
    Distribution d(g, "c", 1, 2);
    s += 3;
    a.sample(1);
    d.sample(1);
    g.reset();
    EXPECT_EQ(s.value(), 0u);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(d.summary().count(), 0u);
}

} // namespace
} // namespace silo::stats
