/**
 * @file
 * Differential property test: the calendar-queue EventQueue must pop
 * events in exactly the order of a reference std::priority_queue
 * ordered on (when, priority, sequence) — the original implementation
 * — across a million seeded-random schedule/pop operations covering
 * same-cycle bursts, zero-delay self-reschedules, tombstoned
 * ("cancelled") events, far-future overflow-list residents and their
 * promotion back into the wheel, cursor rewinds (scheduling below a
 * peeked-but-unpopped tick), and reset() with events pending followed
 * by reuse of the recycled slab slots. Runs under ASan via the
 * san_smoke_test wiring in tests/CMakeLists.txt.
 */

// silo-lint: allowfile(handler-hygiene) test callbacks run synchronously within the enclosing scope; [&] over stack locals is safe here

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "sim/event_queue.hh"

namespace silo
{
namespace
{

struct RefEvent
{
    Tick when;
    int priority;
    std::uint64_t seq;
    std::uint64_t id;
};

struct RefOrder
{
    // std::priority_queue is a max-heap; invert for min-first.
    bool
    operator()(const RefEvent &a, const RefEvent &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq > b.seq;
    }
};

/** The two queues driven in lockstep through identical operations. */
class LockstepDriver
{
  public:
    explicit LockstepDriver(std::uint64_t seed) : _rng(seed) {}

    /** Schedule one event with matching metadata in both queues. */
    void
    scheduleBoth(Tick when, int priority, bool spawns_child)
    {
        std::uint64_t id = _nextId++;
        if (when < _q.now())
            when = _q.now();
        _model.push(RefEvent{when, priority, _nextSeq++, id});
        if (spawns_child) {
            // Zero-delay self-reschedule: the callback schedules a
            // fresh event at the tick being executed. The model-side
            // twin is pushed right after the pop (below), keeping the
            // two sequence counters aligned.
            _q.schedule(when, [this, id] {
                _popped.push_back(id);
                std::uint64_t child = _nextId++;
                _pendingChildren.push_back(child);
                _q.schedule(_q.now(), [this, child] {
                    _popped.push_back(child);
                });
            }, priority);
        } else {
            _q.schedule(when, [this, id] { _popped.push_back(id); },
                        priority);
        }
    }

    /** Pop one event from both queues and compare. @return success. */
    bool
    popBoth()
    {
        if (_model.empty()) {
            EXPECT_FALSE(_q.runNext());
            return false;
        }
        RefEvent expect = _model.top();
        _model.pop();
        std::size_t before = _popped.size();
        EXPECT_TRUE(_q.runNext());
        EXPECT_EQ(_popped.size(), before + 1);
        EXPECT_EQ(_popped.back(), expect.id)
            << "pop order diverged at event " << before << " (when="
            << expect.when << " prio=" << expect.priority << ")";
        EXPECT_EQ(_q.now(), expect.when);
        // Mirror any child the callback scheduled into the model.
        for (std::uint64_t child : _pendingChildren) {
            _model.push(
                RefEvent{expect.when, EventQueue::prioDefault,
                         _nextSeq++, child});
        }
        _pendingChildren.clear();
        return _popped.back() == expect.id;
    }

    /** Drop every pending event from both queues; time restarts. */
    void
    resetBoth()
    {
        _q.reset();
        _model = {};
        _nextSeq = 0;
    }

    std::mt19937_64 &rng() { return _rng; }
    EventQueue &queue() { return _q; }
    bool modelEmpty() const { return _model.empty(); }

  private:
    EventQueue _q;
    std::priority_queue<RefEvent, std::vector<RefEvent>, RefOrder>
        _model;
    std::mt19937_64 _rng;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _nextId = 0;
    std::vector<std::uint64_t> _popped;
    std::vector<std::uint64_t> _pendingChildren;
};

int
randomPriority(std::mt19937_64 &rng)
{
    switch (rng() % 3) {
      case 0:
        return EventQueue::prioDevice;
      case 1:
        return EventQueue::prioDefault;
      default:
        return EventQueue::prioCore;
    }
}

/** Delay mix spanning wheel buckets and the overflow list. */
Tick
randomDelay(std::mt19937_64 &rng)
{
    switch (rng() % 20) {
      case 0: case 1: case 2: case 3: case 4:
        return 0;   // same-cycle burst
      case 5: case 6: case 7: case 8: case 9: case 10: case 11:
        return rng() % 64;
      case 12: case 13: case 14: case 15: case 16:
        return rng() % (Tick(1) << 14);
      case 17: case 18:
        // Just beyond the 16K-tick wheel horizon: overflow residents
        // that promote back as the cursor advances.
        return (Tick(1) << 14) + rng() % 100000;
      default:
        return (Tick(1) << 20) + rng() % (Tick(1) << 28);
    }
}

#if defined(__SANITIZE_ADDRESS__)
#define SILO_DIFF_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SILO_DIFF_UNDER_ASAN 1
#endif
#endif

TEST(EventQueueDiff, MillionRandomOpsMatchReferenceHeap)
{
    LockstepDriver d(0xC0FFEE5EED);
    auto &rng = d.rng();
    // The full million ops under ASan take ~35 s; the sanitizer run
    // keeps the same operation mix at reduced depth.
#ifdef SILO_DIFF_UNDER_ASAN
    constexpr std::size_t ops = 150'000;
#else
    constexpr std::size_t ops = 1'000'000;
#endif
    for (std::size_t i = 0; i < ops; ++i) {
        bool can_pop = !d.modelEmpty();
        // Bias toward scheduling so the queues grow deep, but drain
        // often enough to cross the wheel many times.
        if (!can_pop || rng() % 5 < 3) {
            Tick when = d.queue().now() + randomDelay(rng);
            bool spawns = rng() % 16 == 0;
            d.scheduleBoth(when, randomPriority(rng), spawns);
        } else {
            ASSERT_TRUE(d.popBoth()) << "at op " << i;
        }
    }
    // Drain everything left.
    while (!d.modelEmpty())
        ASSERT_TRUE(d.popBoth());
    EXPECT_FALSE(d.queue().runNext());
}

TEST(EventQueueDiff, ResetWithPendingEventsThenReuseMatchesReferenceHeap)
{
    // reset() with events still pending, at random depths, then keep
    // going: the recycled slab slots and free list must not leak stale
    // bucket links into the reused queue's pop order.
    LockstepDriver d(0x5EEDFACE);
    auto &rng = d.rng();
#ifdef SILO_DIFF_UNDER_ASAN
    constexpr std::size_t ops = 60'000;
#else
    constexpr std::size_t ops = 300'000;
#endif
    std::size_t resets = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        if (rng() % 4096 == 0) {
            d.resetBoth();
            ++resets;
            EXPECT_TRUE(d.queue().empty());
            EXPECT_EQ(d.queue().now(), 0u);
            continue;
        }
        if (d.modelEmpty() || rng() % 5 < 3) {
            Tick when = d.queue().now() + randomDelay(rng);
            d.scheduleBoth(when, randomPriority(rng), rng() % 16 == 0);
        } else {
            ASSERT_TRUE(d.popBoth()) << "at op " << i;
        }
    }
    EXPECT_GT(resets, 5u);
    while (!d.modelEmpty())
        ASSERT_TRUE(d.popBoth());
    EXPECT_FALSE(d.queue().runNext());
}

TEST(EventQueueDiff, SameCycleBurstKeepsFifoWithinPriority)
{
    LockstepDriver d(42);
    for (int round = 0; round < 50; ++round) {
        Tick when = d.queue().now() + Tick(round * 7);
        for (int i = 0; i < 40; ++i)
            d.scheduleBoth(when, randomPriority(d.rng()), false);
        for (int i = 0; i < 40; ++i)
            ASSERT_TRUE(d.popBoth());
    }
}

TEST(EventQueueDiff, CursorRewindAfterPeekedRunUntil)
{
    // runUntil() peeks past its limit, advancing the internal cursor
    // to the next event's (far-future) tick; a subsequent schedule
    // below that tick must still pop first.
    EventQueue q;
    std::vector<int> order;
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(100 + (Tick(1) << 15), [&] { order.push_back(3); });
    q.runUntil(200);
    ASSERT_EQ(q.now(), 100u);
    q.schedule(150, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueDiff, TombstonedEventsStillOrderCorrectly)
{
    // The queue has no erase(); cancellation in the simulator is a
    // callback that checks a flag and does nothing. The tombstone must
    // still occupy its slot in the pop order.
    EventQueue q;
    std::vector<int> order;
    bool cancelled = true;
    q.schedule(10, [&] {
        if (!cancelled)
            order.push_back(1);
    });
    q.schedule(10, [&] { order.push_back(2); });
    q.schedule(20, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3}));
    EXPECT_EQ(q.executedEvents(), 3u);
}

} // namespace
} // namespace silo
