/**
 * @file
 * Experiment helpers shared by the bench binaries: run one (scheme,
 * workload, cores) cell, cache generated traces across schemes, and
 * print paper-style normalized tables.
 */

#ifndef SILO_HARNESS_EXPERIMENT_HH
#define SILO_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "sim/table.hh"
#include "workload/trace_gen.hh"

namespace silo::harness
{

/**
 * Parse the value @p text of the knob or flag @p name: a full decimal
 * unsigned integer. Garbage ("abc"), signs ("-5"), trailing junk
 * ("10x"), an empty value and overflow are configuration errors
 * reported via fatal() naming @p name, never silently misparsed.
 */
std::uint64_t parseUnsigned(const std::string &name,
                            const std::string &text);

/**
 * Read an unsigned configuration knob from the environment.
 *
 * Unset or empty returns @p fallback; anything else must pass
 * parseUnsigned().
 */
std::uint64_t envOr(const char *name, std::uint64_t fallback);

/**
 * Read a string-valued configuration knob from the environment.
 *
 * Unset or empty returns @p fallback. Like envOr() this is the one
 * sanctioned route to the environment: silo-lint rule R2 bans raw
 * getenv() everywhere else, so every knob gets the same
 * empty-equals-unset convention.
 */
std::string envStrOr(const char *name, const std::string &fallback);

/** Trace cache keyed on generation parameters (shared by schemes). */
class TraceCache
{
  public:
    /** The cache key for @p cfg (every generation knob, in order). */
    static std::string key(const workload::TraceGenConfig &cfg);

    /** Fetch the traces for @p cfg, generating them on a miss. */
    const workload::WorkloadTraces &
    get(const workload::TraceGenConfig &cfg);

    bool contains(const workload::TraceGenConfig &cfg) const;

    /**
     * Insert externally generated traces (the sweep engine generates
     * unique configs in parallel, then populates the cache serially).
     * Counts toward generationCount(); duplicate inserts are a bug.
     */
    const workload::WorkloadTraces &
    insert(const workload::TraceGenConfig &cfg,
           workload::WorkloadTraces traces);

    /**
     * How many trace sets were generated into this cache — the
     * determinism tests assert one generation per unique config.
     */
    std::uint64_t generationCount() const { return _generations; }

  private:
    std::map<std::string, workload::WorkloadTraces> _cache;
    std::uint64_t _generations = 0;
};

/** Run one simulation to completion, including the final drain. */
SimReport runCell(const SimConfig &cfg,
                  const workload::WorkloadTraces &traces);

/**
 * Fig. 11/12-style matrix: rows = schemes, columns = the evaluation
 * workloads plus their geometric-mean "Average", each cell normalized
 * to the first scheme (Base).
 */
struct NormalizedMatrix
{
    std::vector<std::string> rowNames;
    std::vector<std::string> colNames;
    /** raw[row][col] — pre-normalization values. */
    std::vector<std::vector<double>> raw;

    /** Normalize each column to row @p base_row and append the mean. */
    TablePrinter toTable(const std::string &title,
                         std::size_t base_row = 0,
                         int digits = 3) const;
};

/** Print the Table II-style configuration header once per bench. */
void printConfigBanner(const SimConfig &cfg, std::ostream &os);

} // namespace silo::harness

#endif // SILO_HARNESS_EXPERIMENT_HH
