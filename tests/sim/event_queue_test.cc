/** @file Unit tests for the discrete event queue. */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
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
            eq.scheduleAfter(10, [&tick] { tick(); });
    };
    eq.schedule(0, [&tick] { tick(); });
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

// --- The inline callback ----------------------------------------------

// The capture budget is enforced where a callable is converted: one
// that fits is a Callback, one a word larger is not, whatever it is.
inline auto fitsBudget = [a = std::array<std::uint64_t, 3>{}] { (void)a; };
inline auto overBudget = [a = std::array<std::uint64_t, 4>{}] { (void)a; };
static_assert(sizeof(fitsBudget) == EventQueue::Callback::captureBytes);
static_assert(
    std::is_constructible_v<EventQueue::Callback, decltype(fitsBudget)>);
static_assert(
    !std::is_constructible_v<EventQueue::Callback, decltype(overBudget)>);
// A std::function (or any Callback) nested in a capture does not fit.
static_assert(!std::is_constructible_v<EventQueue::Callback,
                                       std::function<void()>>);
// Move-only, both ways: the Callback cannot be copied, and it takes
// callables that cannot be copied.
static_assert(!std::is_copy_constructible_v<EventQueue::Callback>);
static_assert(!std::is_copy_assignable_v<EventQueue::Callback>);
static_assert(std::is_nothrow_move_constructible_v<EventQueue::Callback>);
static_assert(std::is_constructible_v<
              EventQueue::Callback,
              decltype([p = std::unique_ptr<int>()] { (void)p; })>);

/** Counts its destruction, once: a moved-from shell does not count. */
class DestroyCounter
{
  public:
    explicit DestroyCounter(int *destroyed) : _destroyed(destroyed) {}
    DestroyCounter(DestroyCounter &&other) noexcept
        : _destroyed(std::exchange(other._destroyed, nullptr))
    {
    }
    DestroyCounter &operator=(DestroyCounter &&) = delete;
    ~DestroyCounter()
    {
        if (_destroyed)
            ++*_destroyed;
    }

  private:
    int *_destroyed;
};

TEST(EventQueueCallback, MovesTransferTheCallable)
{
    int ran = 0;
    int destroyed = 0;
    EventQueue::Callback a = [&ran, c = DestroyCounter(&destroyed)] {
        ++ran;
    };
    EventQueue::Callback b = std::move(a);
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);
    b();
    EventQueue::Callback c;
    c = std::move(b);
    EXPECT_FALSE(b);
    c();
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(destroyed, 0);
    // Assigning over a stored callable destroys it.
    c = [&ran] { ran += 10; };
    EXPECT_EQ(destroyed, 1);
    c();
    EXPECT_EQ(ran, 12);
    c = EventQueue::Callback();
    EXPECT_FALSE(c);
    EXPECT_EQ(destroyed, 1);
}

TEST(EventQueueCallback, CapturedStateIsDestroyedExactlyOnce)
{
    int destroyed = 0;
    int ran = 0;
    {
        EventQueue eq;
        eq.schedule(5, [&ran, c = DestroyCounter(&destroyed)] { ++ran; });
        // Enough residents to grow the slab: each move of a pending
        // callback must hand its state on, not copy or drop it.
        for (int i = 0; i < 100; ++i)
            eq.schedule(6 + i, [c = DestroyCounter(&destroyed)] {});
        // An overflow resident, never run.
        eq.schedule(Tick(1) << 20, [c = DestroyCounter(&destroyed)] {});
        EXPECT_EQ(destroyed, 0);
        ASSERT_TRUE(eq.runNext());
        EXPECT_EQ(ran, 1);
        EXPECT_EQ(destroyed, 1) << "a run callback is released at once";
        EXPECT_EQ(eq.run(100), 100u);
        EXPECT_EQ(destroyed, 101);
    }
    EXPECT_EQ(destroyed, 102) << "the queue releases what never ran";
}

/** Schedule a chain of events, each scheduling the next. */
void
chain(EventQueue &eq, std::vector<std::uint64_t> &seen,
      std::uint64_t value)
{
    eq.scheduleAfter(1, [&eq, &seen, value] {
        // The only pending event is this one, so the next link takes
        // the slab slot this callback was just moved out of.
        if (value < 5)
            chain(eq, seen, value + 1);
        seen.push_back(value);   // still this callback's own capture
    });
}

TEST(EventQueueCallback, ACallbackCanScheduleIntoItsOwnFreedSlot)
{
    EventQueue eq;
    std::vector<std::uint64_t> seen;
    chain(eq, seen, 1);
    eq.run();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), 5u);
}

} // namespace
} // namespace silo
