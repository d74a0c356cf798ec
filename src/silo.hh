/**
 * @file
 * Umbrella header: the public API of the Silo reproduction library.
 *
 * Typical use:
 * @code
 *   #include "silo.hh"
 *
 *   silo::SimConfig cfg;                    // Table II defaults
 *   cfg.scheme = silo::SchemeKind::Silo;    // or Base/FWB/MorLog/LAD
 *
 *   silo::workload::TraceGenConfig tg;
 *   tg.kind = silo::workload::WorkloadKind::Tpcc;
 *   tg.numThreads = cfg.numCores;
 *   auto traces = silo::workload::generateTraces(tg);
 *
 *   silo::harness::System sys(cfg, traces);
 *   sys.finish();             // run, settle, drain; or runEvents + crash()
 *   auto report = sys.report();
 * @endcode
 */

#ifndef SILO_SILO_HH
#define SILO_SILO_HH

#include "energy/battery_model.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "silo/silo_scheme.hh"
#include "sim/config.hh"
#include "workload/trace_gen.hh"
#include "workload/workload.hh"

#endif // SILO_SILO_HH
