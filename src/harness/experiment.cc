#include "harness/experiment.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "nvm/pm_device.hh"
#include "sim/profiler.hh"
#include "sim/sha256.hh"

namespace silo::harness
{

std::uint64_t
parseUnsigned(const std::string &name, const std::string &text)
{
    const char *end = text.data() + text.size();
    std::uint64_t parsed = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, parsed, 10);
    if (ec == std::errc::result_out_of_range)
        fatal(name + "=\"" + text +
              "\" overflows a 64-bit unsigned integer");
    if (ec != std::errc() || ptr != end)
        fatal(name + "=\"" + text +
              "\" is not an unsigned decimal integer");
    return parsed;
}

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    // silo-lint: allow(ambient-entropy) envOr is the sanctioned getenv shim every other file must use
    const char *value = std::getenv(name);   // NOLINT(concurrency-mt-unsafe)
    if (!value || !*value)
        return fallback;
    return parseUnsigned(name, value);
}

std::string
envStrOr(const char *name, const std::string &fallback)
{
    // silo-lint: allow(ambient-entropy) envStrOr is the sanctioned getenv shim every other file must use
    const char *value = std::getenv(name);   // NOLINT(concurrency-mt-unsafe)
    if (!value || !*value)
        return fallback;
    return value;
}

std::string
TraceCache::key(const workload::TraceGenConfig &cfg)
{
    std::ostringstream key;
    key << workload::workloadName(cfg.kind) << '/' << cfg.numThreads
        << '/' << cfg.transactionsPerThread << '/'
        << cfg.opsPerTransaction << '/' << cfg.seed << '/'
        << cfg.options.tpccAllTxTypes;
    // Litmus traces are a pure function of the program text, which the
    // generic knobs above don't capture.
    if (cfg.kind == workload::WorkloadKind::Litmus)
        key << '/' << sha256Hex(cfg.options.litmus);
    return key.str();
}

const workload::WorkloadTraces &
TraceCache::get(const workload::TraceGenConfig &cfg)
{
    auto it = _cache.find(key(cfg));
    if (it == _cache.end())
        return insert(cfg, workload::generateTraces(cfg));
    return it->second;
}

bool
TraceCache::contains(const workload::TraceGenConfig &cfg) const
{
    return _cache.find(key(cfg)) != _cache.end();
}

const workload::WorkloadTraces &
TraceCache::insert(const workload::TraceGenConfig &cfg,
                   workload::WorkloadTraces traces)
{
    auto [it, inserted] = _cache.emplace(key(cfg), std::move(traces));
    if (!inserted)
        panic("TraceCache: duplicate insert for " + key(cfg));
    ++_generations;
    return it->second;
}

SimReport
runCell(const SimConfig &cfg, const workload::WorkloadTraces &traces)
{
    System sys(cfg, traces);
    sys.finish();
    sys.writeTrace();
    SimReport report = sys.report();
    {
        // Separately attributed from the enclosing simulate phase:
        // registry serialization is pure host-side bookkeeping.
        prof::TimedScope scope(prof::currentThreadProfile(),
                               prof::Tag::StatsExport);
        report.statsJson = sys.statsJson();
    }
    return report;
}

TablePrinter
NormalizedMatrix::toTable(const std::string &title,
                          std::size_t base_row, int digits) const
{
    TablePrinter table(title);
    std::vector<std::string> header = {"Design"};
    header.insert(header.end(), colNames.begin(), colNames.end());
    header.push_back("Average");
    table.header(std::move(header));

    for (std::size_t r = 0; r < rowNames.size(); ++r) {
        std::vector<std::string> cells = {rowNames[r]};
        double log_sum = 0;
        unsigned n = 0;
        for (std::size_t c = 0; c < colNames.size(); ++c) {
            double base = raw[base_row][c];
            double norm = base > 0 ? raw[r][c] / base : 0;
            cells.push_back(TablePrinter::num(norm, digits));
            if (norm > 0) {
                log_sum += std::log(norm);
                ++n;
            }
        }
        double gmean = n ? std::exp(log_sum / n) : 0;
        cells.push_back(TablePrinter::num(gmean, digits));
        table.row(std::move(cells));
    }
    return table;
}

void
printConfigBanner(const SimConfig &cfg, std::ostream &os)
{
    os << "# Simulated system (Table II): " << cfg.numCores
       << " cores @ " << coreGhz << " GHz, L1D "
       << cfg.l1d.sizeBytes / 1024 << "KB/" << cfg.l1d.latency
       << "cy, L2 " << cfg.l2.sizeBytes / 1024 << "KB/"
       << cfg.l2.latency << "cy, L3 "
       << cfg.l3.sizeBytes / (1024 * 1024) << "MB/" << cfg.l3.latency
       << "cy, WPQ " << cfg.wpqEntries << " (ADR), PM read "
       << nvm::pmReadCycles << "cy, line write " << nvm::pmWriteBaseCycles
       << "+" << nvm::pmWritePerWordCycles << "/word cy, log buffer "
       << cfg.logBufferEntries << " entries @ "
       << cfg.logBufferLatency << "cy\n";
}

} // namespace silo::harness
