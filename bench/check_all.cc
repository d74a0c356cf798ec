/**
 * @file
 * Persistency-checker sweep (extension; not a paper figure). Runs
 * every scheme over a set of workloads with the durability checker
 * enabled, both to completion and crashed at several event counts
 * (with recovery validated against the committed-image oracle), and
 * prints a pass/fail matrix plus checker event counters. Each
 * (scheme × workload) cell is one System on the parallel sweep engine:
 * its run crashes a copy at each crash point (System::crashCopy())
 * and then finishes as the completion case. Violation reports are
 * collected per crash point and printed in deterministic order after
 * the sweep.
 *
 * Exit status is non-zero if any cell reports a violation, so the
 * sweep doubles as a CI gate:
 *
 *   ./bench/check_all            # default sweep
 *   SILO_TX=50 SILO_CORES=2 SILO_JOBS=8 ./bench/check_all
 */

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace
{

using namespace silo;

constexpr SchemeKind schemes[] = {
    SchemeKind::Base,   SchemeKind::Fwb, SchemeKind::MorLog,
    SchemeKind::Lad,    SchemeKind::Silo, SchemeKind::SwEadr,
};

constexpr workload::WorkloadKind workloads[] = {
    workload::WorkloadKind::Array, workload::WorkloadKind::Queue,
    workload::WorkloadKind::Hash,  workload::WorkloadKind::Tpcc,
};

struct Cell
{
    std::uint64_t violations = 0;
    std::uint64_t wordsChecked = 0;
    std::uint64_t wpqAccepts = 0;
    std::uint64_t commits = 0;
    /** Violation details, shown with -v after the sweep finishes. */
    std::string reportText;
};

/** Record what @p ck saw at one crash point (or the completion). */
void
tally(Cell &out, const check::PersistencyChecker &ck)
{
    out.violations = ck.violations().size();
    out.wordsChecked = ck.counters().wordsCheckedAtRecovery;
    out.wpqAccepts =
        ck.counters().wpqLineAccepts + ck.counters().wpqWordAccepts;
    out.commits = ck.counters().commits;
    if (!ck.clean()) {
        std::ostringstream os;
        ck.report(os);
        out.reportText = os.str();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool verbose = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "-v")
            verbose = true;

    unsigned cores = unsigned(harness::envOr("SILO_CORES", 4));
    std::uint64_t tx = harness::envOr("SILO_TX", 200);
    std::uint64_t seed = harness::envOr("SILO_SEED", 42);
    // Crash points in increasing order; 0 stands for the completion
    // case, which runs last.
    const std::vector<std::uint64_t> crash_points = {
        0, 997, 9973, 99991};

    // One cell per (scheme, workload), holding one Cell per crash point.
    harness::Sweep sweep;
    std::vector<std::vector<Cell>> cells(
        std::size(schemes) * std::size(workloads),
        std::vector<Cell>(crash_points.size()));
    for (auto scheme : schemes) {
        for (auto wl : workloads) {
            std::vector<Cell> &out = cells[sweep.size()];
            harness::CellSpec spec;
            spec.trace.kind = wl;
            spec.trace.numThreads = cores;
            spec.trace.transactionsPerThread = tx;
            spec.trace.seed = seed;
            spec.sim.numCores = cores;
            spec.sim.scheme = scheme;
            spec.sim.checker = true;
            spec.label = std::string(schemeName(scheme)) + "/" +
                         workload::workloadName(wl);
            spec.runner = [&out, &crash_points](
                              const SimConfig &cfg,
                              const workload::WorkloadTraces &tr) {
                harness::System sys(cfg, tr);
                harness::DomainCopy copy;
                for (std::size_t i = 1; i < crash_points.size(); ++i) {
                    sys.runEvents(crash_points[i] -
                                  sys.eventQueue().executedEvents());
                    sys.crashCopy(copy);
                    tally(out[i], *copy.checker);
                }
                sys.finish();
                tally(out[0], *sys.checker());
                return sys.report();
            };
            sweep.add(std::move(spec));
        }
    }
    sweep.run();

    std::uint64_t total_violations = 0;
    TablePrinter table("Persistency checker sweep: violations per "
                       "(scheme, workload), summed over crash points "
                       "{none, ~1k, ~10k, ~100k events}");
    {
        std::vector<std::string> header{"Design"};
        for (auto wl : workloads)
            header.push_back(workload::workloadName(wl));
        header.push_back("WPQ accepts");
        header.push_back("commits");
        header.push_back("oracle words");
        table.header(header);
    }

    std::size_t slot = 0;
    for (auto scheme : schemes) {
        std::vector<std::string> row{schemeName(scheme)};
        Cell totals;
        for ([[maybe_unused]] auto wl : workloads) {
            std::uint64_t cell_violations = 0;
            for (const Cell &c : cells[slot++]) {
                cell_violations += c.violations;
                totals.wordsChecked += c.wordsChecked;
                totals.wpqAccepts += c.wpqAccepts;
                totals.commits += c.commits;
                if (verbose && !c.reportText.empty())
                    std::cerr << c.reportText;
            }
            total_violations += cell_violations;
            row.push_back(cell_violations == 0
                              ? "ok"
                              : std::to_string(cell_violations));
        }
        row.push_back(std::to_string(totals.wpqAccepts));
        row.push_back(std::to_string(totals.commits));
        row.push_back(std::to_string(totals.wordsChecked));
        table.row(row);
    }
    table.print(std::cout);
    std::cout << "# 'ok' = every durability invariant held at store, "
                 "WPQ accept, commit, crash and recovery.\n";
    if (total_violations != 0) {
        std::cerr << "check_all: " << total_violations
                  << " violation(s); rerun with -v for details\n";
        return 1;
    }
    return 0;
}
