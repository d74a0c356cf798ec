#include "workload/workload.hh"

#include "sim/logging.hh"
#include "workload/array_workload.hh"
#include "workload/bank_workload.hh"
#include "workload/btree_workload.hh"
#include "workload/ctrie_workload.hh"
#include "workload/hash_workload.hh"
#include "workload/queue_workload.hh"
#include "workload/rbtree_workload.hh"
#include "workload/rtree_workload.hh"
#include "workload/tatp_workload.hh"
#include "workload/tpcc_workload.hh"
#include "workload/ycsb_workload.hh"

namespace silo::workload
{

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Array: return "Array";
      case WorkloadKind::Btree: return "Btree";
      case WorkloadKind::Hash: return "Hash";
      case WorkloadKind::Queue: return "Queue";
      case WorkloadKind::RBtree: return "RBtree";
      case WorkloadKind::Tpcc: return "TPCC";
      case WorkloadKind::Ycsb: return "YCSB";
      case WorkloadKind::Rtree: return "Rtree";
      case WorkloadKind::Ctrie: return "Ctrie";
      case WorkloadKind::Tatp: return "TATP";
      case WorkloadKind::Bank: return "Bank";
      case WorkloadKind::Litmus: return "Litmus";
    }
    panic("unknown workload kind");
}

WorkloadKind
workloadFromName(const std::string &name)
{
    for (WorkloadKind kind : allWorkloads) {
        if (name == workloadName(kind))
            return kind;
    }
    // Not part of allWorkloads (needs a program attached), but still
    // round-trips through the sweep labels and results JSON.
    if (name == workloadName(WorkloadKind::Litmus))
        return WorkloadKind::Litmus;
    fatal("unknown workload: " + name);
}

std::unique_ptr<Workload>
makeWorkload(WorkloadKind kind, const WorkloadOptions &opts)
{
    switch (kind) {
      case WorkloadKind::Array:
        return std::make_unique<ArrayWorkload>();
      case WorkloadKind::Btree:
        return std::make_unique<BtreeWorkload>();
      case WorkloadKind::Hash:
        return std::make_unique<HashWorkload>();
      case WorkloadKind::Queue:
        return std::make_unique<QueueWorkload>();
      case WorkloadKind::RBtree:
        return std::make_unique<RBtreeWorkload>();
      case WorkloadKind::Tpcc:
        return std::make_unique<TpccWorkload>(opts.tpccAllTxTypes);
      case WorkloadKind::Ycsb:
        return std::make_unique<YcsbWorkload>();
      case WorkloadKind::Rtree:
        return std::make_unique<RtreeWorkload>();
      case WorkloadKind::Ctrie:
        return std::make_unique<CtrieWorkload>();
      case WorkloadKind::Tatp:
        return std::make_unique<TatpWorkload>();
      case WorkloadKind::Bank:
        return std::make_unique<BankWorkload>();
      case WorkloadKind::Litmus:
        break; // generateTraces() hands programs to litmusTraces()
    }
    panic(std::string("no generic workload for ") + workloadName(kind));
}

} // namespace silo::workload
