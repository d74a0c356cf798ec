#include "harness/sweep.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "harness/profiling.hh"
#include "harness/walltime.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace silo::harness
{

namespace
{

double
nowSeconds()
{
    return wallSeconds();
}

} // namespace

unsigned
Sweep::defaultJobs()
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::uint64_t jobs = envOr("SILO_JOBS", hw);
    if (jobs == 0)
        fatal("SILO_JOBS must be positive");
    return unsigned(std::min<std::uint64_t>(jobs, 1024));
}

unsigned
Sweep::jobs() const
{
    return _opts.jobs ? _opts.jobs : defaultJobs();
}

void
Sweep::parallelFor(std::size_t n, unsigned jobs,
                   const std::function<void(std::size_t)> &body)
{
    jobs = unsigned(std::min<std::size_t>(jobs, n));
    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Work stealing over per-worker deques: a worker pops its own
    // queue from the front and steals from a victim's back, so cheap
    // neighbouring cells stay local while long-running stragglers get
    // drained by idle workers.
    struct WorkerQueue
    {
        std::mutex m;
        std::deque<std::size_t> q;
    };
    std::vector<WorkerQueue> queues(jobs);
    for (std::size_t i = 0; i < n; ++i)
        queues[i % jobs].q.push_back(i);

    std::mutex error_m;
    std::exception_ptr first_error;

    auto worker = [&](unsigned self) {
        setLogWorkerId(int(self));
        for (;;) {
            std::size_t idx = 0;
            bool found = false;
            {
                std::lock_guard<std::mutex> lk(queues[self].m);
                if (!queues[self].q.empty()) {
                    idx = queues[self].q.front();
                    queues[self].q.pop_front();
                    found = true;
                }
            }
            for (unsigned v = 1; v < jobs && !found; ++v) {
                WorkerQueue &victim = queues[(self + v) % jobs];
                std::lock_guard<std::mutex> lk(victim.m);
                if (!victim.q.empty()) {
                    idx = victim.q.back();
                    victim.q.pop_back();
                    found = true;
                }
            }
            if (!found)
                return;
            try {
                body(idx);
            } catch (...) {
                std::lock_guard<std::mutex> lk(error_m);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w)
        pool.emplace_back(worker, w);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

const std::vector<CellResult> &
Sweep::run()
{
    unsigned jobs = this->jobs();
    // SILO_PROF installs the process profiler (once) before any
    // worker thread exists; unset, this is a no-op and every
    // instrumentation site below stays a null-pointer branch.
    profilerFromEnv();

    // Phase 1: generate every unique trace before any cell runs, so
    // the cache is read-only during fan-out. Generation is itself
    // parallel over the unique configs (each trace depends only on
    // its own config and seed), then inserted serially.
    std::vector<const workload::TraceGenConfig *> missing;
    std::set<std::string> queued;
    for (const auto &spec : _specs) {
        std::string key = TraceCache::key(spec.trace);
        if (!_cache.contains(spec.trace) && queued.insert(key).second)
            missing.push_back(&spec.trace);
    }
    if (!missing.empty()) {
        if (_opts.progress)
            std::fprintf(stderr, "sweep: generating %zu trace set(s) "
                         "on %u job(s)\n", missing.size(), jobs);
        std::vector<workload::WorkloadTraces> generated(missing.size());
        parallelFor(missing.size(), jobs, [&](std::size_t j) {
            prof::TimedScope scope(prof::currentThreadProfile(),
                                   prof::Tag::TraceCompile);
            generated[j] = workload::generateTraces(*missing[j]);
        });
        for (std::size_t j = 0; j < missing.size(); ++j)
            _cache.insert(*missing[j], std::move(generated[j]));
    }

    // Phase 2: fan the cells out. Each worker writes only its own
    // pre-sized result slot, so completion order never shows.
    _results.assign(_specs.size(), CellResult{});
    _done = 0;
    _runJobs = std::max(1u,
                        unsigned(std::min<std::size_t>(jobs,
                                                       _specs.size())));
    _workerBusyNanos.assign(_runJobs, 0);
    _startSeconds = nowSeconds();
    parallelFor(_specs.size(), jobs,
                [this](std::size_t i) { runOne(i); });
    if (_opts.progress && !_specs.empty() && isatty(STDERR_FILENO))
        std::fprintf(stderr, "\n");
    return _results;
}

void
Sweep::runOne(std::size_t index)
{
    if (_hooks.onCellStart)
        _hooks.onCellStart(index);
    const CellSpec &spec = _specs[index];
    const workload::WorkloadTraces &traces = _cache.get(spec.trace);
    // SILO_LOG_SEGMENTED wins over the cell's config (a no-op when
    // unset), so every bench can run under the segmented log lifecycle
    // (DESIGN.md §4j) straight from the environment.
    SimConfig sim = spec.sim;
    sim.logSegmented =
        envOr("SILO_LOG_SEGMENTED", sim.logSegmented ? 1 : 0) != 0;
    // SILO_TRACE turns on timeline tracing for the cells it selects:
    // every cell by default, or just #SILO_TRACE_CELL when that is set.
    // Each traced cell writes its own file (see tracePathFor).
    if (std::string base = envStrOr("SILO_TRACE", ""); !base.empty()) {
        std::uint64_t only =
            envOr("SILO_TRACE_CELL", ~std::uint64_t(0));
        if (only == ~std::uint64_t(0) || only == index) {
            sim.tracePath = tracePathFor(base, spec);
            sim.traceSampleNs = double(envOr(
                "SILO_TRACE_SAMPLE_NS",
                std::uint64_t(sim.traceSampleNs)));
        }
    }
    double t0 = nowSeconds();
    CellResult out;
    out.traces = &traces;
    out.workerId = logWorkerId();
    out.queueWaitSeconds = t0 - _startSeconds;
    {
        // One simulate scope per cell — custom runners (crash
        // injection benches) are covered here too, since they have no
        // other choke point.
        prof::TimedScope scope(prof::currentThreadProfile(),
                               prof::Tag::Simulate);
        out.report = spec.runner ? spec.runner(sim, traces)
                                 : runCell(sim, traces);
    }
    out.wallSeconds = nowSeconds() - t0;
    _results[index] = std::move(out);
    noteCellDone(index, _results[index].wallSeconds);
}

void
Sweep::noteCellDone(std::size_t index, double wall_seconds)
{
    static std::mutex progress_m;
    std::lock_guard<std::mutex> lk(progress_m);
    ++_done;
    std::size_t slot =
        std::size_t(std::max(0, logWorkerId())) % _runJobs;
    _workerBusyNanos[slot] += std::uint64_t(wall_seconds * 1e9);
    if (!_opts.progress)
        return;
    double elapsed = nowSeconds() - _startSeconds;
    double eta = _done ? elapsed / double(_done) *
                             double(_specs.size() - _done)
                       : 0;
    double rate = elapsed > 0 ? double(_done) / elapsed : 0;
    std::uint64_t busy_nanos = 0;
    for (std::uint64_t nanos : _workerBusyNanos)
        busy_nanos += nanos;
    // Busy fraction: cell compute time over worker-seconds elapsed —
    // the gap is queueing imbalance plus engine overhead.
    double busy = elapsed > 0
                      ? double(busy_nanos) * 1e-9 /
                            (elapsed * double(_runJobs))
                      : 0;
    const char *terminator = isatty(STDERR_FILENO) ? "\r" : "\n";
    std::fprintf(stderr,
                 "sweep: [%3zu/%zu] %-40s %6.2fs  %5.1f cells/s  "
                 "busy %3.0f%%  eta %5.0fs%s",
                 _done, _specs.size(),
                 _specs[index].label.empty()
                     ? "(unnamed cell)"
                     : _specs[index].label.c_str(),
                 wall_seconds, rate, busy * 100, eta, terminator);
    std::fflush(stderr);
}

void
Sweep::writeJson(const std::string &path,
                 const std::string &benchmark) const
{
    prof::TimedScope phase(prof::currentThreadProfile(),
                           prof::Tag::JsonEmit);
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path());
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot open JSON results file " + path);

    // Host timing is nondeterministic, so the per-cell "perf" block
    // only exists when the run opted into profiling: goldens and the
    // cross-job byte-identity guarantee see SILO_PROF unset.
    bool embed_perf = !envStrOr("SILO_PROF", "").empty();

    os << "{\n";
    os << "  \"schema\": \"silo-sweep-v1\",\n";
    os << "  \"benchmark\": \"" << jsonEscape(benchmark) << "\",\n";
    os << "  \"cells\": [";
    for (std::size_t i = 0; i < _results.size(); ++i) {
        const CellSpec &spec = _specs[i];
        const SimReport &r = _results[i].report;
        os << (i ? ",\n" : "\n");
        os << "    {\n";
        os << "      \"label\": \"" << jsonEscape(spec.label)
           << "\",\n";
        os << "      \"scheme\": \"" << schemeName(spec.sim.scheme)
           << "\",\n";
        os << "      \"workload\": \""
           << workload::workloadName(spec.trace.kind) << "\",\n";
        os << "      \"cores\": " << spec.sim.numCores << ",\n";
        os << "      \"trace\": {\"threads\": " << spec.trace.numThreads
           << ", \"tx_per_thread\": "
           << spec.trace.transactionsPerThread
           << ", \"ops_per_tx\": " << spec.trace.opsPerTransaction
           << ", \"seed\": " << spec.trace.seed << "},\n";
        os << "      \"report\": {\n";
        os << "        \"committed_transactions\": "
           << r.committedTransactions << ",\n";
        os << "        \"ticks\": " << r.ticks << ",\n";
        os << "        \"tx_per_million_cycles\": "
           << jsonNum(r.txPerMillionCycles) << ",\n";
        os << "        \"media_word_writes\": " << r.mediaWordWrites
           << ",\n";
        os << "        \"media_line_writes\": " << r.mediaLineWrites
           << ",\n";
        os << "        \"data_region_word_writes\": "
           << r.dataRegionWordWrites << ",\n";
        os << "        \"log_region_word_writes\": "
           << r.logRegionWordWrites << ",\n";
        os << "        \"log_records_written\": "
           << r.logRecordsWritten << ",\n";
        os << "        \"commit_stall_cycles\": "
           << r.commitStallCycles << ",\n";
        os << "        \"store_stall_cycles\": " << r.storeStallCycles
           << ",\n";
        os << "        \"wpq_full_stalls\": " << r.wpqFullStalls
           << ",\n";
        os << "        \"wpq_accepted_writes\": "
           << r.wpqAcceptedWrites << ",\n";
        os << "        \"wpq_accepted_bytes\": " << r.wpqAcceptedBytes;
        if (!r.statsJson.empty()) {
            // The registry document is already valid JSON; splice it
            // in verbatim so the schema stays "silo-stats-v1" inside.
            os << ",\n        \"stats\": " << r.statsJson << "\n";
        } else {
            os << "\n";
        }
        os << "      }";
        if (embed_perf) {
            os << ",\n      \"perf\": {\"wall_seconds\": "
               << jsonNum(_results[i].wallSeconds)
               << ", \"queue_wait_seconds\": "
               << jsonNum(_results[i].queueWaitSeconds)
               << ", \"worker\": " << _results[i].workerId << "}\n";
        } else {
            os << "\n";
        }
        os << "    }";
    }
    os << "\n  ]\n}\n";
    if (!os)
        fatal("failed writing JSON results file " + path);
}

std::string
tracePathFor(const std::string &base, const CellSpec &spec)
{
    std::filesystem::path p(base);
    std::string ext = p.extension().string();
    if (ext.empty())
        ext = ".json";
    std::string cell = std::string(schemeName(spec.sim.scheme)) + "-" +
                       workload::workloadName(spec.trace.kind) + "-" +
                       std::to_string(spec.sim.numCores) + "c";
    p.replace_filename(p.stem().string() + "-" + cell + ext);
    return p.string();
}

std::string
jsonOutputPath(const std::string &benchmark)
{
    return envStrOr("SILO_JSON", "results/" + benchmark + ".json");
}

} // namespace silo::harness
