/**
 * @file
 * Workload abstraction and factory.
 *
 * The eleven workloads mirror Table III and Fig. 4 of the paper:
 * micro-benchmarks (Array, Btree, Hash, Queue, RBtree), macro-benchmarks
 * from Whisper (TPCC, YCSB), the PMDK structures (Rtree, Ctrie), TATP,
 * and Bank. Each is a real data-structure implementation over simulated
 * persistent memory; a workload performs one logical operation per call
 * and the generator wraps calls in transactions.
 */

#ifndef SILO_WORKLOAD_WORKLOAD_HH
#define SILO_WORKLOAD_WORKLOAD_HH

#include <memory>
#include <string>

#include "sim/rng.hh"
#include "workload/mem_client.hh"
#include "workload/pm_heap.hh"

namespace silo::workload
{

/** The benchmark suite (Table III + Fig. 4 extras). */
enum class WorkloadKind
{
    Array,
    Btree,
    Hash,
    Queue,
    RBtree,
    Tpcc,
    Ycsb,
    Rtree,
    Ctrie,
    Tatp,
    Bank,
    /**
     * Declarative litmus program (workload/litmus.hh), driven by
     * WorkloadOptions::litmus. Deliberately absent from allWorkloads:
     * it has no meaning without a program attached.
     */
    Litmus,
};

/** @return display name matching the paper's figures. */
const char *workloadName(WorkloadKind kind);

/** Parse a display name back to a kind; fatal() if unknown. */
WorkloadKind workloadFromName(const std::string &name);

/** Tuning options shared by all workloads. */
struct WorkloadOptions
{
    /** TPCC: run all five transaction types (§VI-D) vs New-Order only. */
    bool tpccAllTxTypes = false;
    /**
     * Litmus only: the serialized "litmus v1" program text
     * (workload/litmus.hh). Ignored by every other workload kind.
     */
    std::string litmus;
};

/**
 * One thread's workload instance.
 *
 * setup() populates the structure (untimed, unrecorded); transaction()
 * performs one logical operation's loads and stores. Transaction
 * boundaries are issued by the caller so a "write set scale" (Fig. 14)
 * can pack several operations into one transaction.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Display name. */
    virtual const char *name() const = 0;

    /**
     * Populate initial state.
     * @param mem Access interface (recording disabled by the caller).
     * @param heap This thread's PM arena.
     * @param rng This thread's deterministic stream.
     */
    virtual void setup(MemClient &mem, PmHeap &heap, Rng &rng) = 0;

    /** Perform one logical operation inside the caller's transaction. */
    virtual void transaction(MemClient &mem, PmHeap &heap, Rng &rng) = 0;
};

/** Instantiate a workload of @p kind; panic() for Litmus, whose
 *  traces come from litmusTraces() (workload/litmus.hh). */
std::unique_ptr<Workload> makeWorkload(WorkloadKind kind,
                                       const WorkloadOptions &opts = {});

/** All kinds in Fig. 4 order. */
inline constexpr WorkloadKind allWorkloads[] = {
    WorkloadKind::Array, WorkloadKind::Btree, WorkloadKind::Hash,
    WorkloadKind::Queue, WorkloadKind::RBtree, WorkloadKind::Tpcc,
    WorkloadKind::Ycsb, WorkloadKind::Rtree, WorkloadKind::Ctrie,
    WorkloadKind::Tatp, WorkloadKind::Bank,
};

/** The seven benchmarks used in Figs. 11-15. */
inline constexpr WorkloadKind evaluationWorkloads[] = {
    WorkloadKind::Array, WorkloadKind::Btree, WorkloadKind::Hash,
    WorkloadKind::Queue, WorkloadKind::RBtree, WorkloadKind::Tpcc,
    WorkloadKind::Ycsb,
};

} // namespace silo::workload

#endif // SILO_WORKLOAD_WORKLOAD_HH
