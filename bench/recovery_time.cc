/**
 * @file
 * Recovery-cost model (extension; the paper evaluates no recovery
 * figure). For each scheme, crash a run mid-flight and measure the
 * work recovery performs: live log records scanned, words rewritten
 * into the data region, and the modeled PM time (reads of the live
 * log region plus media word writes). One sweep-engine cell per
 * scheme; all six schemes share one cached Hash trace set.
 */

#include <iostream>
#include <vector>

#include "harness/sweep.hh"
#include "nvm/pm_device.hh"

namespace
{

using namespace silo;

struct RecoveryRow
{
    std::uint64_t liveRecords = 0;
    std::uint64_t wordsRewritten = 0;
    double modelNs = 0;
    std::uint64_t crashFlushBytes = 0;
};

} // namespace

int
main()
{
    constexpr SchemeKind kinds[] = {
        SchemeKind::Base, SchemeKind::Fwb, SchemeKind::MorLog,
        SchemeKind::Lad, SchemeKind::Silo, SchemeKind::SwEadr,
    };
    constexpr std::size_t n = sizeof(kinds) / sizeof(kinds[0]);
    std::vector<RecoveryRow> rows(n);
    std::uint64_t crash_events =
        harness::envOr("SILO_CRASH_EVENTS", 200000);

    harness::Sweep sweep;
    for (std::size_t i = 0; i < n; ++i) {
        harness::CellSpec spec;
        spec.trace.kind = workload::WorkloadKind::Hash;
        spec.trace.numThreads =
            unsigned(harness::envOr("SILO_CORES", 8));
        spec.trace.transactionsPerThread =
            harness::envOr("SILO_TX", 300);
        spec.sim.numCores = spec.trace.numThreads;
        spec.sim.scheme = kinds[i];
        spec.label = std::string("Recovery/") + schemeName(kinds[i]);
        spec.runner = [&rows, i, crash_events](
                          const SimConfig &cfg,
                          const workload::WorkloadTraces &tr) {
            harness::System sys(cfg, tr);
            sys.runEvents(crash_events);
            sys.crash();

            RecoveryRow row;
            row.crashFlushBytes =
                sys.scheme().schemeStats().crashFlushBytes.value();
            row.liveRecords = sys.logRegion().liveRecordCount();

            WordStore before = sys.pm().media();
            sys.recover();
            for (const auto &[addr, value] : sys.pm().media()) {
                if (!before.contains(addr) ||
                    before.load(addr) != value)
                    ++row.wordsRewritten;
            }
            // Model: one 64B-line read per live record + one media
            // word write per rewritten word.
            double ns_per_read = double(nvm::pmReadCycles) / 2.0;
            double ns_per_word = double(nvm::pmWritePerWordCycles) / 2.0;
            row.modelNs = double(row.liveRecords) * ns_per_read +
                          double(row.wordsRewritten) * ns_per_word;
            rows[i] = row;
            return sys.report();
        };
        sweep.add(std::move(spec));
    }
    sweep.run();

    TablePrinter table(
        "Recovery cost after a mid-run crash, Hash @ 8 cores "
        "(extension)");
    table.header({"Design", "battery flush B", "live log records",
                  "words rewritten", "modeled PM time (us)"});
    for (std::size_t i = 0; i < n; ++i) {
        const auto &r = rows[i];
        table.row({schemeName(kinds[i]),
                   std::to_string(r.crashFlushBytes),
                   std::to_string(r.liveRecords),
                   std::to_string(r.wordsRewritten),
                   TablePrinter::num(r.modelNs / 1000.0, 1)});
    }
    table.print(std::cout);
    std::cout << "# Silo's recovery reads only the selectively "
                 "flushed logs; FWB/MorLog replay their whole live "
                 "log tail.\n";
    return 0;
}
