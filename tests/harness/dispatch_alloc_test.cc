/**
 * @file
 * The event dispatch path allocates nothing once a System is warm.
 *
 * Every continuation is an inline Callback, every continuation held
 * across an event is parked in its component's table, and every queue
 * on the path (the WPQ, the waiters, the stalled stores) is a ring
 * that stops growing at its peak occupancy. This binary replaces the
 * global operator new to count heap allocations, runs a System of
 * each scheme past its first events, and holds the allocations per
 * dispatched event of the next stretch under a small bound, which
 * leaves room for growth to a run's high-water marks (value-store and
 * log-region pages touched for the first time, a table or ring
 * reaching a new peak), not for a block per event.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "workload/trace_gen.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace silo::harness
{
namespace
{

/** Events run before counting: the first few hundred warm a System. */
constexpr std::uint64_t warmupEvents = 2000;
/** Events counted. */
constexpr std::uint64_t measuredEvents = 40000;

struct Case
{
    SchemeKind scheme;
    workload::WorkloadKind kind;

    /** The case's name, for the test name and gtest's printout. */
    std::string
    name() const
    {
        std::string n = std::string(schemeName(scheme)) + "_" +
                        workload::workloadName(kind);
        for (char &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    }

    friend void
    PrintTo(const Case &c, std::ostream *os)
    {
        *os << c.name();
    }
};

class DispatchAllocs : public ::testing::TestWithParam<Case>
{
};

TEST_P(DispatchAllocs, WarmSystemDispatchesWithoutAllocating)
{
    const Case &c = GetParam();
    workload::TraceGenConfig tg;
    tg.kind = c.kind;
    tg.numThreads = 2;
    tg.transactionsPerThread = 4000;
    tg.seed = 11;
    const workload::WorkloadTraces traces = workload::generateTraces(tg);
    SimConfig cfg;
    cfg.numCores = 2;
    cfg.scheme = c.scheme;
    System sys(cfg, traces);

    ASSERT_TRUE(sys.runEvents(warmupEvents));
    const EventQueue &eq = sys.eventQueue();
    const std::uint64_t events = eq.executedEvents();
    const std::uint64_t allocs = g_allocs.load();
    ASSERT_TRUE(sys.runEvents(measuredEvents))
        << "the run ended inside the measured stretch";
    // Read before the assertion, whose failure message allocates.
    const std::uint64_t allocated = g_allocs.load() - allocs;
    const std::uint64_t dispatched = eq.executedEvents() - events;
    const double per_event = double(allocated) / double(dispatched);
    EXPECT_LE(per_event, 0.05)
        << allocated << " allocations in " << dispatched << " events";
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (SchemeKind scheme : allSchemes) {
        for (workload::WorkloadKind kind : {workload::WorkloadKind::Bank,
                                            workload::WorkloadKind::Hash})
            cases.push_back({scheme, kind});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DispatchAllocs, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return info.param.name();
    });

} // namespace
} // namespace silo::harness
