/** @file Unit tests for the discrete event queue. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace silo
{
namespace
{

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.runNext());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, EventQueue::prioCore);
    eq.schedule(5, [&] { order.push_back(0); }, EventQueue::prioDevice);
    eq.schedule(5, [&] { order.push_back(3); }, EventQueue::prioCore);
    eq.schedule(5, [&] { order.push_back(1); }, EventQueue::prioDefault);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EventsCanReschedule)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> tick = [&] {
        if (++fired < 5)
            eq.scheduleAfter(10, tick);
    };
    eq.schedule(0, tick);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, ScheduleInThePastClampsToNow)
{
    EventQueue eq;
    Tick seen = maxTick;
    eq.schedule(100, [&] {
        eq.schedule(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 100u);
}

TEST(EventQueue, StopRequestHaltsRun)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i) {
        eq.schedule(i, [&] {
            if (++fired == 4)
                eq.requestStop();
        });
    }
    eq.run();
    EXPECT_EQ(fired, 4);
    EXPECT_TRUE(eq.stopRequested());
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueue, MaxEventsBoundsExecution)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [&] { ++fired; });
    EXPECT_EQ(eq.run(3), 3u);
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runNext();
    eq.schedule(20, [] {});
    eq.requestStop();
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.executedEvents(), 0u);
    EXPECT_FALSE(eq.stopRequested());
}

TEST(EventQueue, PendingCallbacksAreReleased)
{
    // Wheel residents, same-tick neighbours and an overflow resident
    // all hold a reference until the queue drops them.
    auto token = std::make_shared<int>(0);
    auto schedule_four = [&](EventQueue &eq) {
        eq.schedule(eq.now() + 5, [token] {});
        eq.schedule(eq.now() + 5, [token] {});
        eq.schedule(eq.now() + 9, [token] {});
        eq.schedule(eq.now() + (Tick(1) << 20), [token] {});
    };
    {
        EventQueue eq;
        schedule_four(eq);
        EXPECT_EQ(token.use_count(), 5);
        // A run callback is released too, not parked in a free slot.
        ASSERT_TRUE(eq.runNext());
        EXPECT_EQ(token.use_count(), 4);
    }
    EXPECT_EQ(token.use_count(), 1) << "destruction must release";

    EventQueue eq;
    schedule_four(eq);
    ASSERT_TRUE(eq.runNext());
    eq.reset();
    EXPECT_EQ(token.use_count(), 1) << "reset() must release";
    // The reset queue is reusable: slots recycle and order holds.
    std::vector<int> order;
    eq.schedule(3, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(1); }, EventQueue::prioDevice);
    eq.schedule(1, [&] { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, FootprintDoesNotScaleWithWheelBuckets)
{
    // Every System embeds one queue, and the fuzzer builds ~10^4
    // Systems per second: a per-bucket container (16,384 of them)
    // would zero and destroy ~384 KiB per machine.
    EXPECT_LT(sizeof(EventQueue), std::size_t(128) * 1024);
}

TEST(EventQueue, ExecutedEventsCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 7u);
}

TEST(EventQueue, DeterministicAcrossRuns)
{
    auto trace = [] {
        EventQueue eq;
        std::vector<Tick> ticks;
        for (int i = 0; i < 100; ++i) {
            eq.schedule((i * 37) % 50, [&, i] {
                ticks.push_back(eq.now() * 1000 + i);
            });
        }
        eq.run();
        return ticks;
    };
    EXPECT_EQ(trace(), trace());
}

} // namespace
} // namespace silo
