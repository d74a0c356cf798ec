/**
 * @file
 * Crash-recovery walkthrough (the Fig. 10 scenario, §III-G).
 *
 * Runs Bank transfers under Silo, injects a power failure mid-run,
 * performs the battery-backed selective log flush and ADR drain, then
 * recovers the PM image and verifies atomic durability: every
 * committed transfer is present, no partial transfer survives, and
 * the total balance is conserved.
 *
 *   $ ./example_crash_recovery [crash_after_events]
 */

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "harness/system.hh"
#include "workload/trace_gen.hh"

int
main(int argc, char **argv)
{
    using namespace silo;

    std::uint64_t crash_events =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;

    workload::TraceGenConfig tg;
    tg.kind = workload::WorkloadKind::Bank;
    tg.numThreads = 4;
    tg.transactionsPerThread = 200;
    auto traces = workload::generateTraces(tg);

    SimConfig cfg;
    cfg.numCores = 4;
    cfg.scheme = SchemeKind::Silo;

    harness::System sys(cfg, traces);
    sys.runEvents(crash_events);

    std::printf("--- crash injected at tick %llu ---\n",
                (unsigned long long)sys.eventQueue().now());
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        std::printf("core %u: %llu committed, %s\n", c,
                    (unsigned long long)sys.coreAt(c).committedTx(),
                    sys.coreAt(c).inTransaction()
                        ? "a transaction was in flight"
                        : "idle between transactions");
    }

    // Power failure: battery flushes the selective logs (undo for
    // uncommitted, redo + ID tuple for committed-but-undrained), ADR
    // drains the WPQ and on-PM buffer, caches are lost.
    sys.crash();
    std::printf("battery flushed %llu bytes of logs\n",
                (unsigned long long)
                    sys.scheme().schemeStats().crashFlushBytes.value());

    sys.recover();

    // Oracle: initial image plus the stores of committed transactions.
    WordStore expected = harness::committedPrefixImage(sys, traces);
    std::uint64_t mismatches = 0;
    for (const auto &[addr, value] : expected) {
        if (sys.pm().media().load(addr) != value)
            ++mismatches;
    }
    std::printf("recovered image      : %s (%zu words checked)\n",
                mismatches ? "CORRUPT" : "consistent",
                expected.size());
    return mismatches ? 1 : 0;
}
