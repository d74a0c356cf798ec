/**
 * @file
 * No exported stat without a writer: over a small matrix that reaches
 * every scheme's mechanisms — six schemes x {Hash, Bank, TPCC, Queue},
 * each run to completion and crashed at event 1,500 then recovered,
 * with and without the tiny segmented ring — every scalar in
 * System::statsJson(), and the count of every average and
 * distribution, must be non-zero in some cell. Two extra cells reach
 * the mechanisms the matrix does not: Silo's flush bits (a transaction
 * whose lines leave the caches before it commits) and LAD's slow mode
 * (the same program with ladMcEntries at LAD's relieve headroom). A
 * counter nothing writes fails here unless the allowlist gives the
 * reason it stays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <string>

#include "fuzz/fixture.hh"
#include "fuzz/fuzz_runner.hh"
#include "harness/system.hh"
#include "stats_json.hh"
#include "workload/trace_gen.hh"

namespace silo::harness
{
namespace
{

constexpr SchemeKind allSchemes[] = {
    SchemeKind::Base, SchemeKind::Fwb,  SchemeKind::MorLog,
    SchemeKind::Lad,  SchemeKind::Silo, SchemeKind::SwEadr,
};

/** @p path with each core or MC index segment as "*". */
std::string
generic(const std::string &path)
{
    static const std::regex index("/[0-9]+(?=/|$)");
    return std::regex_replace(path, index, "/*");
}

/**
 * Largest value each exported counter reached so far, by generic path:
 * every scalar, and the "count" of every average or distribution (the
 * objects holding a "mean").
 */
class CounterMaxima
{
  public:
    void
    add(const std::string &stats_json)
    {
        std::map<std::string, double> numbers = statsNumbers(stats_json);
        for (const auto &[path, value] : numbers) {
            std::size_t slash = path.rfind('/');
            std::string parent = path.substr(0, slash);
            bool in_stat_object = numbers.count(parent + "/mean") != 0;
            if (in_stat_object && path.substr(slash + 1) != "count")
                continue;
            double &max = _max[generic(path)];
            max = std::max(max, value);
        }
    }

    const std::map<std::string, double> &maxima() const { return _max; }

  private:
    std::map<std::string, double> _max;
};

/** Run @p cfg on @p traces to completion, then crashed at event 1,500. */
void
addCell(CounterMaxima &counters, const SimConfig &cfg,
        const workload::WorkloadTraces &traces)
{
    {
        System sys(cfg, traces);
        sys.finish();
        counters.add(sys.statsJson());
    }
    System sys(cfg, traces);
    sys.runEvents(1500);
    sys.crash();
    sys.recover();
    counters.add(sys.statsJson());
}

TEST(StatsExport, EveryExportedCounterIsWrittenInSomeCell)
{
    // Counters that stay zero on every path this matrix can reach,
    // each with the reason it is still exported.
    const std::map<std::string, std::string> allowlist = {};

    CounterMaxima counters;
    for (workload::WorkloadKind kind :
         {workload::WorkloadKind::Hash, workload::WorkloadKind::Bank,
          workload::WorkloadKind::Tpcc, workload::WorkloadKind::Queue}) {
        workload::TraceGenConfig tg;
        tg.kind = kind;
        tg.numThreads = 2;
        tg.transactionsPerThread = 60;
        auto traces = workload::generateTraces(tg);
        for (SchemeKind scheme : allSchemes) {
            for (bool segmented : {false, true}) {
                addCell(counters,
                        fuzz::litmusSimConfig(2, scheme, MutationKind::None,
                                              segmented),
                        traces);
            }
        }
    }

    // Flush bits: the committed fixture's one transaction stores nine
    // lines of one cache set, so the tiny caches evict its lines to
    // the MC while its log entries still wait in the buffer.
    fuzz::LitmusFixture flush = fuzz::loadFixtureFile(
        std::string(SILO_TEST_DIR) +
        "/check/litmus/stale-flush-bit-silo.litmus");
    addCell(counters, fuzz::litmusSimConfig(1, SchemeKind::Silo),
            workload::litmusTraces(flush.program));

    // LAD's slow mode: with ladMcEntries at LAD's relieve headroom
    // (8), each of those evictions inside the open transaction pushes
    // one of its lines to slow mode.
    {
        SimConfig cfg = fuzz::litmusSimConfig(1, SchemeKind::Lad);
        cfg.ladMcEntries = 8;
        addCell(counters, cfg, workload::litmusTraces(flush.program));
    }

    std::set<std::string> zero;
    for (const auto &[path, max] : counters.maxima()) {
        if (max == 0 && !allowlist.count(path))
            zero.insert(path);
    }
    EXPECT_GT(counters.maxima().size(), 50u);
    for (const std::string &path : zero)
        ADD_FAILURE() << path << " is exported but zero in every cell";
    for (const auto &[path, reason] : allowlist) {
        auto it = counters.maxima().find(path);
        EXPECT_TRUE(it != counters.maxima().end() && it->second == 0)
            << path << " is allowlisted (" << reason
            << ") but is written or no longer exported";
    }
}

} // namespace
} // namespace silo::harness
