/**
 * @file
 * Randomized property test of the segmented log lifecycle: for every
 * scheme, random adversarial litmus programs run under random segment
 * geometries — to completion and crashed mid-flight — and the
 * persistency checker (invariants 1–7, crash closure) must stay
 * clean.
 *
 * Seeded and reproducible: every case prints its geometry and
 * serialized program on failure, and the same (seed, scheme) pair
 * regenerates it. A failure shrinks with the fuzzer's machinery:
 *   tools/litmus fuzz --seed <seed> --segmented --scheme <scheme>
 * finds, shrinks and writes a fixture for the same class of defect.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/persistency_checker.hh"
#include "fuzz/fuzz_runner.hh"
#include "fuzz/litmus_gen.hh"
#include "harness/system.hh"
#include "sim/rng.hh"
#include "workload/litmus.hh"

namespace silo::fuzz
{
namespace
{

/** Random-but-valid lifecycle geometry drawn from @p rng. */
SimConfig
randomGeometry(Rng &rng, unsigned threads, SchemeKind scheme)
{
    SimConfig cfg = litmusSimConfig(threads, scheme,
                                    MutationKind::None,
                                    /*segmented=*/true);
    cfg.logSegmentBytes =
        pmBufferLineBytes * (1 + rng.range(0, 1));       // 256/512 B
    cfg.logSegmentsPerThread = unsigned(rng.range(2, 6)); // ring size
    cfg.logCleanReserve =
        unsigned(rng.range(1, cfg.logSegmentsPerThread - 1));
    cfg.logCheckpointBytes = 256u << rng.range(0, 2);    // 256..1 KiB
    cfg.logLifecycleTickCycles = Cycles(16 << rng.range(0, 3));
    cfg.logCleanPerRecordCycles = Cycles(rng.range(1, 16));
    cfg.logCheckpointPerWordCycles = Cycles(rng.range(1, 16));
    cfg.validate();
    return cfg;
}

std::string
describe(const SimConfig &cfg, const workload::LitmusProgram &program,
         std::uint64_t seed)
{
    std::ostringstream os;
    os << "seed=" << seed << " scheme=" << schemeName(cfg.scheme)
       << " segBytes=" << cfg.logSegmentBytes
       << " segments=" << cfg.logSegmentsPerThread
       << " reserve=" << cfg.logCleanReserve
       << " ckptBytes=" << cfg.logCheckpointBytes
       << " tick=" << cfg.logLifecycleTickCycles
       << "\nreproduce/shrink: tools/litmus fuzz --segmented"
       << " --scheme " << schemeName(cfg.scheme)
       << " --seed " << seed << "\n"
       << workload::serializeLitmus(program);
    return os.str();
}

/** Run to completion or crash at @p crash_events; checker verdict. */
std::vector<check::Violation>
runCase(const SimConfig &cfg, const workload::WorkloadTraces &traces,
        std::uint64_t crash_events, std::uint64_t *executed = nullptr)
{
    harness::System sys(cfg, traces);
    if (crash_events == 0) {
        sys.finish();
    } else {
        sys.runEvents(crash_events);
        sys.crash();
        sys.recover();
    }
    if (executed)
        *executed = sys.eventQueue().executedEvents();
    return sys.checker()->violations();
}

TEST(LifecycleProperty, AllSchemesStayCleanUnderRandomGeometry)
{
    constexpr std::uint64_t kSeed = 0xA11CE;
    constexpr int kRoundsPerScheme = 2;
    Rng rng(kSeed);
    LitmusGenConfig gen;

    for (SchemeKind scheme : allSchemes) {
        for (int round = 0; round < kRoundsPerScheme; ++round) {
            workload::LitmusProgram program = generateLitmus(
                rng, gen,
                std::string("prop-") + schemeName(scheme) + "-" +
                    std::to_string(round));
            const auto traces = workload::litmusTraces(program);
            const unsigned threads =
                unsigned(program.threads.size());
            SimConfig cfg = randomGeometry(rng, threads, scheme);
            SCOPED_TRACE(describe(cfg, program, kSeed));

            // Completion run: clean, and it bounds the crash sweep.
            std::uint64_t executed = 0;
            for (const check::Violation &v :
                 runCase(cfg, traces, 0, &executed))
                ADD_FAILURE() << "completion: " << v.toJson();
            ASSERT_GT(executed, 0u);

            // Crash at a handful of event indices spread across the
            // run (the exhaustive sweep is the fuzzer's job; this
            // pins the property for every geometry class).
            for (int k = 1; k <= 4; ++k) {
                std::uint64_t crash = executed * k / 5;
                if (crash == 0)
                    continue;
                for (const check::Violation &v :
                     runCase(cfg, traces, crash))
                    ADD_FAILURE()
                        << "crash@" << crash << ": " << v.toJson();
            }
        }
    }
}

} // namespace
} // namespace silo::fuzz
