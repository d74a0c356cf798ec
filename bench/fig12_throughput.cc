/**
 * @file
 * Figs. 11 and 12 from one sweep, each normalized to Base, for
 * 1/2/4/8 cores across the seven benchmarks: PM media write traffic
 * (media word writes after on-PM buffer coalescing and
 * data-comparison-write, §III-E, §VI-B) and transaction throughput
 * (§VI-C). The 140-cell matrix runs on the parallel sweep engine
 * (SILO_JOBS workers); results land in results/fig12_throughput.json
 * next to the printed tables.
 *
 * A cell that commits fewer than cores × SILO_TX transactions stalled,
 * and its throughput comes from a partial run: after printing and
 * writing everything, the bench names each such cell on stderr and
 * exits non-zero.
 */

#include <iostream>

#include "matrix_common.hh"

int
main()
{
    using namespace silo;
    using namespace silo::bench;

    unsigned max_cores =
        unsigned(harness::envOr("SILO_MAX_CORES", 8));
    std::vector<unsigned> core_counts;
    for (unsigned c = 1; c <= max_cores; c *= 2)
        core_counts.push_back(c);

    harness::Sweep sweep;
    auto results = runMatrix(sweep, core_counts);
    sweep.writeJson(harness::jsonOutputPath("fig12_throughput"),
                    "fig12_throughput");

    SimConfig defaults;
    harness::printConfigBanner(defaults, std::cout);
    for (unsigned cores : core_counts) {
        auto m = matrixFor(results, cores,
                           [](const harness::SimReport &r) {
                               return double(r.mediaWordWrites);
                           });
        m.toTable("Fig. 11(" + std::to_string(cores) +
                      " cores) — PM media write traffic, "
                      "normalized to Base",
                  0).print(std::cout);
    }
    std::cout << "# Paper (8 cores): Silo reduces writes by 76.5% vs "
                 "MorLog and 82% vs FWB; Silo ~= LAD.\n";
    for (unsigned cores : core_counts) {
        auto m = matrixFor(results, cores,
                           [](const harness::SimReport &r) {
                               return r.txPerMillionCycles;
                           });
        m.toTable("Fig. 12(" + std::to_string(cores) +
                      " cores) — transaction throughput, "
                      "normalized to Base",
                  0).print(std::cout);
    }
    std::cout << "# Paper (8 cores): Silo = 1.5x LAD, 4.3x MorLog, "
                 "6.4x FWB; Base is lowest.\n";

    int stalled = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const harness::CellSpec &spec = sweep.specs()[i];
        std::uint64_t want = std::uint64_t(spec.sim.numCores) *
                             spec.trace.transactionsPerThread;
        std::uint64_t got =
            sweep.results()[i].report.committedTransactions;
        if (got < want) {
            std::cerr << "fig12_throughput: " << spec.label
                      << " stalled: committed " << got << " of "
                      << want << " transactions\n";
            ++stalled;
        }
    }
    return stalled ? 1 : 0;
}
