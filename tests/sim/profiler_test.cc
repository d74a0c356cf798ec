/**
 * @file
 * Profiler invariants the silo-prof-v1 contract rests on: exact
 * self/total/count accounting under nesting, a complete and unique
 * tag-name table, zero-cost null scopes, dispatch-tag attribution
 * through the EventQueue choke point, and a deterministic
 * (thread-order-independent) merge. Host *times* are inherently
 * noisy, so the tests assert structural exactness — counts, ordering
 * relations, self+children==total — never absolute durations.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/profiler.hh"

namespace silo::prof
{
namespace
{

TEST(ThreadProfileTest, NestedScopesFoldSelfAndTotalExactly)
{
    ThreadProfile p;
    p.enter(Tag::Simulate);
    p.enter(Tag::Core);
    p.exit();
    p.enter(Tag::Mc);
    p.exit();
    p.exit();
    EXPECT_EQ(p.depth(), 0u);

    const auto &tags = p.counters();
    const TagCounters &sim = tags[std::size_t(Tag::Simulate)];
    const TagCounters &core = tags[std::size_t(Tag::Core)];
    const TagCounters &mc = tags[std::size_t(Tag::Mc)];

    EXPECT_EQ(sim.count, 1u);
    EXPECT_EQ(core.count, 1u);
    EXPECT_EQ(mc.count, 1u);
    // Leaves have no children: self == total, exactly.
    EXPECT_EQ(core.selfNanos, core.totalNanos);
    EXPECT_EQ(mc.selfNanos, mc.totalNanos);
    // The parent's self excludes exactly its children's totals. All
    // uint64 nanoseconds, so this holds with == and no epsilon.
    EXPECT_EQ(sim.selfNanos + core.totalNanos + mc.totalNanos,
              sim.totalNanos);
    // Untouched tags stay zero.
    EXPECT_EQ(tags[std::size_t(Tag::Other)].count, 0u);
    EXPECT_EQ(tags[std::size_t(Tag::Other)].totalNanos, 0u);
}

TEST(ThreadProfileTest, DeepNestingPropagatesChildTime)
{
    ThreadProfile p;
    p.enter(Tag::Simulate);        // depth 1
    p.enter(Tag::LogScheme);       // depth 2
    p.enter(Tag::Nvm);             // depth 3
    p.exit();
    p.exit();
    p.exit();
    const auto &tags = p.counters();
    const TagCounters &sim = tags[std::size_t(Tag::Simulate)];
    const TagCounters &log = tags[std::size_t(Tag::LogScheme)];
    const TagCounters &nvm = tags[std::size_t(Tag::Nvm)];
    EXPECT_EQ(log.selfNanos + nvm.totalNanos, log.totalNanos);
    EXPECT_EQ(sim.selfNanos + log.totalNanos, sim.totalNanos);
    EXPECT_GE(sim.totalNanos, log.totalNanos);
    EXPECT_GE(log.totalNanos, nvm.totalNanos);
}

TEST(ThreadProfileTest, RepeatedScopesAccumulateCounts)
{
    ThreadProfile p;
    for (int i = 0; i < 1000; ++i) {
        TimedScope scope(&p, Tag::Core);
    }
    EXPECT_EQ(p.counters()[std::size_t(Tag::Core)].count, 1000u);
    EXPECT_EQ(p.depth(), 0u);
}

TEST(TimedScopeTest, NullProfileIsANoOp)
{
    // The off path: must not crash, must not record anything anywhere.
    TimedScope scope(nullptr, Tag::Core);
    SUCCEED();
}

TEST(TagTest, NamesAreCompleteUniqueAndStable)
{
    std::set<std::string> seen;
    for (std::size_t i = 0; i < numTags; ++i) {
        std::string name = tagName(Tag(i));
        EXPECT_FALSE(name.empty()) << "tag " << i;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate tag name " << name;
    }
    // The silo-prof-v1 schema names are load-bearing: renaming one is
    // a format change and must be deliberate.
    EXPECT_EQ(tagName(Tag::Core), std::string("core"));
    EXPECT_EQ(tagName(Tag::LogScheme), std::string("log_scheme"));
    EXPECT_EQ(tagName(Tag::Queue), std::string("queue"));
    EXPECT_EQ(tagName(Tag::Other), std::string("other"));
    EXPECT_EQ(tagName(Tag::TraceCompile),
              std::string("trace_compile"));
    EXPECT_EQ(tagName(Tag::JsonEmit), std::string("json_emit"));
}

TEST(TagTest, DomainPhaseSplitMatchesEnumLayout)
{
    EXPECT_TRUE(isDomain(Tag::Core));
    EXPECT_TRUE(isDomain(Tag::Stats));
    EXPECT_TRUE(isDomain(Tag::Queue));
    EXPECT_TRUE(isDomain(Tag::Other));
    EXPECT_FALSE(isDomain(Tag::TraceCompile));
    EXPECT_FALSE(isDomain(Tag::JsonEmit));
}

TEST(EventQueueProfiling, DispatchesAreTimedUnderTheirDomainTag)
{
    ThreadProfile profile;
    EventQueue q;
    q.setProfiler(&profile);

    int ran = 0;
    q.schedule(10, [&ran] { ++ran; }, EventQueue::prioCore,
               Tag::Core);
    q.schedule(10, [&ran] { ++ran; }, EventQueue::prioDevice,
               Tag::Nvm);
    q.schedule(20, [&ran] { ++ran; }, EventQueue::prioDefault,
               Tag::LogScheme);
    q.schedule(30, [&ran] { ++ran; }, EventQueue::prioDefault,
               Tag::LogScheme);
    // Default tag: Other. The production tree never leaves it there —
    // perf_telemetry_test's MergedCountsAreIdenticalAcrossJobCounts
    // asserts Other == 0 on a real matrix.
    q.schedule(40, [&ran] { ++ran; });
    q.run();

    EXPECT_EQ(ran, 5);
    const auto &tags = profile.counters();
    EXPECT_EQ(tags[std::size_t(Tag::Core)].count, 1u);
    EXPECT_EQ(tags[std::size_t(Tag::Nvm)].count, 1u);
    EXPECT_EQ(tags[std::size_t(Tag::LogScheme)].count, 2u);
    EXPECT_EQ(tags[std::size_t(Tag::Other)].count, 1u);
    EXPECT_EQ(tags[std::size_t(Tag::Mc)].count, 0u);
    EXPECT_EQ(profile.depth(), 0u);
}

TEST(EventQueueProfiling, TheLoopIsChargedToTheQueueDomain)
{
    ThreadProfile profile;
    EventQueue q;
    q.setProfiler(&profile);
    for (Tick t = 1; t <= 50; ++t)
        q.schedule(t, [] {}, EventQueue::prioCore, Tag::Core);
    q.runUntil(20);
    q.run();

    // One queue scope per loop; every dispatch nests in one, so the
    // domains' self times sum to the loops' total, exactly.
    const auto &tags = profile.counters();
    const TagCounters &queue = tags[std::size_t(Tag::Queue)];
    EXPECT_EQ(queue.count, 2u);
    EXPECT_EQ(tags[std::size_t(Tag::Core)].count, 50u);
    std::uint64_t domain_self = 0;
    for (std::size_t d = 0; d < numDomains; ++d)
        domain_self += tags[d].selfNanos;
    EXPECT_EQ(domain_self, queue.totalNanos);
    EXPECT_EQ(profile.depth(), 0u);
}

TEST(EventQueueProfiling, DetachedQueueRecordsNothing)
{
    ThreadProfile profile;
    EventQueue q;
    q.setProfiler(&profile);
    q.setProfiler(nullptr);
    int ran = 0;
    q.schedule(1, [&ran] { ++ran; }, EventQueue::prioCore, Tag::Core);
    q.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(profile.counters()[std::size_t(Tag::Core)].count, 0u);
}

TEST(ProfilerTest, MergeSumsSlabsExactly)
{
    Profiler profiler;
    constexpr int threads = 8;
    constexpr int scopesPerThread = 500;

    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&profiler, t] {
            ThreadProfile *slab = profiler.threadProfile();
            ASSERT_NE(slab, nullptr);
            // Same slab on every lookup from this thread.
            EXPECT_EQ(profiler.threadProfile(), slab);
            Tag tag = (t % 2 == 0) ? Tag::Core : Tag::Mc;
            for (int i = 0; i < scopesPerThread; ++i) {
                TimedScope scope(slab, tag);
            }
        });
    }
    for (std::thread &th : pool)
        th.join();

    EXPECT_EQ(profiler.threadCount(), std::size_t(threads));
    auto merged = profiler.merged();
    // Counts are exact and scheduling-independent: 4 threads each on
    // Core and Mc.
    EXPECT_EQ(merged[std::size_t(Tag::Core)].count,
              std::uint64_t(threads / 2 * scopesPerThread));
    EXPECT_EQ(merged[std::size_t(Tag::Mc)].count,
              std::uint64_t(threads / 2 * scopesPerThread));
    EXPECT_EQ(merged[std::size_t(Tag::Other)].count, 0u);
    // Leaf scopes: merged self == merged total.
    EXPECT_EQ(merged[std::size_t(Tag::Core)].selfNanos,
              merged[std::size_t(Tag::Core)].totalNanos);
}

TEST(ProfilerTest, InstallRoutesCurrentThreadProfile)
{
    // No profiler installed: the lookup is null (the entire tree's
    // off path rests on this).
    Profiler::install(nullptr);
    EXPECT_EQ(currentThreadProfile(), nullptr);

    Profiler profiler;
    Profiler::install(&profiler);
    ThreadProfile *slab = currentThreadProfile();
    ASSERT_NE(slab, nullptr);
    EXPECT_EQ(currentThreadProfile(), slab); // cached, stable
    EXPECT_EQ(Profiler::current(), &profiler);

    // Swapping profilers re-registers instead of reusing stale slabs.
    Profiler second;
    Profiler::install(&second);
    ThreadProfile *fresh = currentThreadProfile();
    ASSERT_NE(fresh, nullptr);
    EXPECT_NE(fresh, slab);

    Profiler::install(nullptr);
    EXPECT_EQ(currentThreadProfile(), nullptr);
}

} // namespace
} // namespace silo::prof
