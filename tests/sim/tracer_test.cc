/** @file Unit tests for the Tracer and the IntervalSampler. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sampler.hh"
#include "sim/tracer.hh"

namespace silo::trace
{
namespace
{

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer t;
    EXPECT_FALSE(t.enabled());
    EXPECT_EQ(t.track("mem", "mc"), 0u);
    t.completeSpan(0, "drain", 10, 20);
    t.counter(0, "occupancy", 10, 3.0);
    t.instant(0, "crash", 10);
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(t.trackCount(), 0u);
}

TEST(Tracer, TracksDeduplicateAndShareProcessIds)
{
    Tracer t;
    t.enable();
    auto mc = t.track("mem", "mc");
    auto pm = t.track("mem", "pm");
    auto core = t.track("cores", "core0");
    EXPECT_NE(mc, pm);
    EXPECT_NE(mc, core);
    EXPECT_EQ(t.track("mem", "mc"), mc);
    EXPECT_EQ(t.trackCount(), 3u);

    std::ostringstream os;
    t.writeJson(os);
    const std::string text = os.str();
    // Two distinct processes, named once each via metadata events.
    EXPECT_NE(text.find("\"args\":{\"name\":\"mem\"}"),
              std::string::npos);
    EXPECT_NE(text.find("\"args\":{\"name\":\"cores\"}"),
              std::string::npos);
    EXPECT_NE(text.find("\"args\":{\"name\":\"pm\"}"),
              std::string::npos);
}

TEST(Tracer, SpanWithReversedEndIsClampedToZeroDuration)
{
    Tracer t;
    t.enable();
    auto tr = t.track("mem", "mc");
    t.completeSpan(tr, "drain", 100, 40);
    std::ostringstream os;
    t.writeJson(os);
    EXPECT_NE(os.str().find("\"dur\":0"), std::string::npos);
}

TEST(Tracer, WriteJsonSortsByTimestampKeepingRecordOrder)
{
    Tracer t;
    t.enable(1.0);  // 1 tick per exported microsecond
    auto tr = t.track("mem", "mc");
    t.completeSpan(tr, "late", 300, 310);
    t.completeSpan(tr, "early", 100, 110);
    t.completeSpan(tr, "outer", 100, 140);  // same ts as "early"

    std::ostringstream os;
    t.writeJson(os);
    const std::string text = os.str();
    std::size_t early = text.find("\"early\"");
    std::size_t outer = text.find("\"outer\"");
    std::size_t late = text.find("\"late\"");
    ASSERT_NE(early, std::string::npos);
    ASSERT_NE(outer, std::string::npos);
    ASSERT_NE(late, std::string::npos);
    EXPECT_LT(early, outer);  // same ts: recording order is kept
    EXPECT_LT(outer, late);   // earlier ts sorts first
}

TEST(Tracer, GoldenJson)
{
    Tracer t;
    t.enable(2.0);
    auto tr = t.track("mem", "mc");
    t.completeSpan(tr, "drain", 4, 10);
    t.counter(tr, "occ", 6, 3.5);
    t.instant(tr, "crash", 8);

    std::ostringstream os;
    t.writeJson(os);
    EXPECT_EQ(os.str(),
              "{\"traceEvents\":[\n"
              "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
              "\"name\":\"process_name\",\"args\":{\"name\":\"mem\"}},\n"
              "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0,"
              "\"name\":\"thread_name\",\"args\":{\"name\":\"mc\"}},\n"
              "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":2,"
              "\"name\":\"drain\",\"dur\":3},\n"
              "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":3,"
              "\"name\":\"occ\",\"args\":{\"value\":3.5}},\n"
              "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":4,"
              "\"name\":\"crash\",\"s\":\"t\"}\n"
              "],\"displayTimeUnit\":\"ns\"}\n");
}

TEST(Tracer, EscapesQuotesAndBackslashes)
{
    Tracer t;
    t.enable();
    auto tr = t.track("mem", "a\"b\\c");
    t.instant(tr, "x\"y", 0);
    std::ostringstream os;
    t.writeJson(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("a\\\"b\\\\c"), std::string::npos);
    EXPECT_NE(text.find("x\\\"y"), std::string::npos);
}

TEST(Sampler, SamplesCrossedBoundariesWithoutAddingEvents)
{
    EventQueue eq;
    Tracer t;
    t.enable();
    IntervalSampler sampler(eq, t, 100);
    auto track = t.track("counters", "sampler");
    int value = 0;
    sampler.addCounter(track, "v", [&] { return double(value); });
    sampler.start();

    // Events at 0, 50, 250; boundaries 0, 100, 200 are all sampled by
    // the time the event at 250 runs (none are added to the queue).
    eq.schedule(0, [&] { value = 1; });
    eq.schedule(50, [&] { value = 2; });
    eq.schedule(250, [&] { value = 3; });
    std::uint64_t executed = eq.run();
    EXPECT_EQ(executed, 3u);  // the sampler scheduled nothing
    EXPECT_EQ(eq.now(), 250u);
    EXPECT_EQ(sampler.samplesTaken(), 3u);
    EXPECT_EQ(t.eventCount(), 3u);
}

TEST(Sampler, SampleObservesSettledStateOfOutgoingTick)
{
    EventQueue eq;
    Tracer t;
    t.enable(1.0);
    IntervalSampler sampler(eq, t, 100);
    auto track = t.track("counters", "sampler");
    int value = 0;
    sampler.addCounter(track, "v", [&] { return double(value); });
    sampler.start();

    // Both events at tick 100 run before the boundary-100 sample is
    // taken (it happens when time advances to 150), so the sample sees
    // the tick's final state.
    eq.schedule(100, [&] { value = 1; });
    eq.schedule(100, [&] { value = 2; });
    eq.schedule(150, [] {});
    eq.run();
    std::ostringstream os;
    t.writeJson(os);
    const std::string text = os.str();
    // Boundary 0 sampled value 0; boundary 100 sampled value 2.
    EXPECT_NE(text.find("\"ts\":0,\"name\":\"v\","
                        "\"args\":{\"value\":0}"),
              std::string::npos);
    EXPECT_NE(text.find("\"ts\":100,\"name\":\"v\","
                        "\"args\":{\"value\":2}"),
              std::string::npos);
}

TEST(Sampler, FlushCollectsFinalPartialEpoch)
{
    EventQueue eq;
    Tracer t;
    t.enable();
    IntervalSampler sampler(eq, t, 100);
    auto track = t.track("counters", "sampler");
    sampler.addCounter(track, "v", [] { return 1.0; });
    sampler.start();

    eq.schedule(130, [] {});
    eq.run();
    EXPECT_EQ(sampler.samplesTaken(), 2u);  // boundaries 0 and 100
    sampler.flush(eq.now());
    EXPECT_EQ(sampler.samplesTaken(), 2u);  // 200 > 130: nothing due
    sampler.flush(250);
    EXPECT_EQ(sampler.samplesTaken(), 3u);
    sampler.flush(250);  // idempotent
    EXPECT_EQ(sampler.samplesTaken(), 3u);
}

} // namespace
} // namespace silo::trace
