/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload <eval_matrix|litmus_crash|long_horizon>
 *             --seed <n> --seconds <s> --trace <0|1>
 *   perfbench --selftest
 *
 * --trace 0 sets the workload up several times (setup_s is the median)
 * and runs its timed passes untraced; it prints ops_per_s, setup_s and
 * peak_rss_mib. --trace 1 sets up once, runs one untraced pass and one
 * traced pass (spans around every call into a layer, silo-prof domains
 * on) and prints the per-layer metrics. Host seconds are corrected for
 * host-speed drift by the reference kernel (measure.hh). The last
 * stdout line is the result object; the line before it carries the
 * raw seconds, kernel samples and the digest of every op's simulated
 * outputs.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "workloads.hh"

extern char **environ;

namespace perfbench
{

namespace
{

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

struct SpanTotals
{
    std::map<std::string, double> self;
    /** Per op: duration minus reference-kernel time inside it. */
    std::vector<double> opSeconds;
    /** Share of all op time that child spans cover. */
    double coverage = 1;
    /** Lowest share of one op's duration its child spans cover. */
    double minCoverage = 1;
    /** Ops whose child spans cover less than 95 % of them. */
    std::size_t opsUnder95 = 0;
    /** Summed op durations (kernel time excluded). */
    double opSum = 0;
};

SpanTotals
summarize(const std::deque<Span> &spans)
{
    SpanTotals out;
    std::vector<double> children(spans.size(), 0);
    std::vector<double> kernel(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double dur = s.end - s.start;
        if (s.parent >= 0)
            children[std::size_t(s.parent)] += dur;
        if (std::strcmp(s.name, "bench.ref_kernel") == 0) {
            for (int p = s.parent; p >= 0; p = spans[std::size_t(p)].parent)
                kernel[std::size_t(p)] += dur;
        }
    }
    double op_total = 0, op_children = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double dur = s.end - s.start;
        out.self[s.name] += dur - children[i];
        if (std::strcmp(s.name, "op") == 0 && dur > 0) {
            out.opSeconds.push_back(dur - kernel[i]);
            out.opSum += dur - kernel[i];
            op_total += dur;
            op_children += children[i];
            out.minCoverage = std::min(out.minCoverage, children[i] / dur);
            out.opsUnder95 += children[i] < 0.95 * dur;
        }
    }
    if (op_total > 0)
        out.coverage = op_children / op_total;
    return out;
}

/**
 * The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
 * beyond it; the maximum when there are fewer than twenty samples.
 */
void
tailPercentile(std::vector<double> v, double &pct, double &value)
{
    std::sort(v.begin(), v.end());
    pct = 100;
    value = v.empty() ? 0 : v.back();
    for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
        double beyond = double(v.size()) * (1 - p / 100);
        if (beyond >= 10) {
            pct = p;
            std::size_t idx = std::size_t(
                std::ceil(p / 100 * double(v.size()))) - 1;
            value = v[std::min(idx, v.size() - 1)];
            return;
        }
    }
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + jsonNum(v[i]);
    return out + "]";
}

std::string
jsonObject(const std::map<std::string, double> &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        out += (first ? "" : ",") + jsonString(k) + ":" + jsonNum(v);
        first = false;
    }
    return out + "}";
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opts)
{
    if (name == "eval_matrix")
        return makeEvalMatrix(opts);
    if (name == "litmus_crash")
        return makeLitmusCrash(opts);
    if (name == "long_horizon")
        return makeLongHorizon(opts);
    return nullptr;
}

/** Keep the library's SILO_* knobs from perturbing a run; one worker. */
void
pinEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        std::string kv = *e;
        if (kv.rfind("SILO_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("SILO_JOBS", "1", 1);
}

/** Result of one benchmark invocation. */
struct Run
{
    bool correct = true;
    std::vector<std::string> problems;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::string detail;
};

void
problem(Run &run, const std::string &what)
{
    run.correct = false;
    run.problems.push_back(what);
}

Run
runWorkload(const std::string &name, const Options &opts, bool trace)
{
    Run run;
    std::unique_ptr<Workload> w = makeWorkload(name, opts);
    std::ostringstream detail;
    detail << "{\"workload\":" << jsonString(name)
           << ",\"seed\":" << opts.seed << ",\"trace\":" << trace;

    // Set-up: several repetitions, drift-corrected by the kernel
    // samples taken between their steps.
    Drift setup_drift;
    SpanLog setup_spans;
    std::vector<double> setup_raw;
    Digest input_digest;
    unsigned reps = trace ? 1 : w->setupReps();
    for (unsigned r = 0; r < reps; ++r) {
        PassContext ctx(opts, setup_drift, trace ? &setup_spans : nullptr);
        double t0 = nowSeconds();
        double k0 = setup_drift.overheadSeconds();
        w->setup(ctx);
        setup_raw.push_back(nowSeconds() - t0 -
                            (setup_drift.overheadSeconds() - k0));
        input_digest = ctx.digest;
    }
    double setup_s = setup_drift.correct(median(setup_raw));
    detail << ",\"setup\":{\"raw_s\":" << jsonArray(setup_raw)
           << ",\"kernel_ms\":" << jsonArray(setup_drift.samplesMs())
           << ",\"corrected_s\":" << jsonNum(setup_s) << "}";

    // Timed passes, untraced.
    Drift timed_drift;
    unsigned passes = trace ? 1 : w->passes(opts.seconds);
    std::optional<PassContext> first;
    for (unsigned p = 0; p < passes; ++p) {
        PassContext ctx(opts, timed_drift, nullptr);
        timed_drift.begin();
        w->pass(ctx);
        timed_drift.end();
        run.attempted += ctx.attempted;
        run.failed += ctx.failed;
        if (!first)
            first.emplace(ctx);
        else if (ctx.digest.hex() != first->digest.hex())
            problem(run, "pass " + std::to_string(p) +
                             " gave different simulated outputs");
    }
    double timed_raw = timed_drift.rawSeconds();
    double timed_s = timed_drift.correctedSeconds();
    Digest digest = input_digest;
    digest.add(first->digest.hex());
    detail << ",\"timed\":{\"passes\":" << passes
           << ",\"raw_s\":" << jsonNum(timed_raw)
           << ",\"kernel_ms\":" << jsonArray(timed_drift.samplesMs())
           << ",\"kernel_median_ms\":" << jsonNum(timed_drift.medianMs())
           << ",\"corrected_s\":" << jsonNum(timed_s) << "}"
           << ",\"digest\":" << jsonString(digest.hex())
           << ",\"simulated\":" << jsonObject(first->counts.simulated())
           << ",\"extras\":" << jsonObject(w->extras());
    detail << ",\"failures\":[";
    for (std::size_t i = 0; i < first->failures.size(); ++i)
        detail << (i ? "," : "") << jsonString(first->failures[i]);
    detail << "]";

    if (!trace) {
        if (run.attempted == 0)
            problem(run, "no op ran");
        run.metrics = {
            {"ops_per_s", double(run.attempted) / timed_s, "1/s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mib", peakRssMib(), "MiB"},
        };
    } else {
        // The traced pass: spans on, silo-prof domains on.
        silo::prof::Profiler profiler;
        silo::prof::Profiler::install(&profiler);
        silo::prof::currentThreadProfile(); // register outside counts
        Drift traced_drift;
        SpanLog spans;
        PassContext ctx(opts, traced_drift, &spans);
        traced_drift.begin();
        w->tracedPass(ctx);
        traced_drift.end();
        double traced_raw = traced_drift.rawSeconds();
        silo::prof::Profiler::install(nullptr);

        if (std::string why = w->reconcile(*first, ctx); !why.empty())
            problem(run, why);
        SpanTotals st = summarize(spans.spans());
        SpanTotals setup_st = summarize(setup_spans.spans());
        double traced_s = traced_drift.correctedSeconds();
        double overhead = traced_s / timed_s - 1;
        auto host = [&](const char *span) {
            auto it = st.self.find(span);
            return traced_drift.correct(it == st.self.end() ? 0 : it->second);
        };
        if (st.coverage < 0.95)
            problem(run, "child spans cover only " + jsonNum(st.coverage) +
                             " of op time");
        // The ops must account for the traced pass, so per-op sums
        // compare with the untimed pass up to the tracing overhead.
        double ops_share = traced_raw > 0 ? st.opSum / traced_raw : 0;
        if (ops_share < 0.95)
            problem(run, "op spans cover only " + jsonNum(ops_share) +
                             " of the traced pass");

        const SimCounts &c = ctx.counts;
        double run_s = host("harness.run");
        double drain_s = host("harness.drain");
        double domain_s[silo::prof::numDomains];
        double domain_sum = 0;
        for (std::size_t d = 0; d < silo::prof::numDomains; ++d) {
            domain_s[d] =
                traced_drift.correct(double(ctx.domainNanos[d]) * 1e-9);
            domain_sum += domain_s[d];
        }
        std::vector<double> op_ms;
        for (double s : st.opSeconds)
            op_ms.push_back(traced_drift.correct(s) * 1e3);
        double tail_pct = 0, tail_ms = 0;
        tailPercentile(op_ms, tail_pct, tail_ms);
        double per_system = c.systems ? 1.0 / double(c.systems) : 0;
        std::map<std::string, double> extras = w->extras();
        auto extra = [&](const char *key) {
            auto it = extras.find(key);
            return it == extras.end() ? 0.0 : it->second;
        };
        auto setup_self = setup_st.self.find("workload.tracegen");

        run.metrics = {
            {"workload.tracegen_s",
             setup_self == setup_st.self.end()
                 ? 0
                 : setup_drift.correct(setup_self->second),
             "s"},
            {"workload.litmus_compile_s", host("workload.litmus_compile"),
             "s"},
            {"fuzz.generate_s", host("fuzz.generate"), "s"},
            {"harness.construct_s", host("harness.construct"), "s"},
            {"harness.destruct_s", host("harness.destruct"), "s"},
            {"harness.construct_allocs",
             double(c.constructAllocs) * per_system, "count"},
            {"harness.construct_mib",
             double(c.constructBytes) * per_system / (1 << 20), "MiB"},
            {"harness.run_s", run_s, "s"},
            {"harness.drain_s", drain_s, "s"},
            {"harness.stats_export_s", host("harness.stats_export"), "s"},
            {"harness.op_p50_ms", median(op_ms), "ms"},
            {"harness.op_tail_ms", tail_ms, "ms"},
            {"harness.op_tail_pct", tail_pct, "%"},
            {"harness.op_count", double(op_ms.size()), "count"},
            {"sim.events_per_s",
             run_s + drain_s > 0 ? double(c.runEvents) / (run_s + drain_s)
                                 : 0,
             "1/s"},
            {"sim.allocs_per_event",
             c.runEvents ? double(c.runAllocs) / double(c.runEvents) : 0,
             "ratio"},
            {"log.crash_s", host("log.crash"), "s"},
            {"log.recover_s", host("log.recover"), "s"},
            {"core.host_s", domain_s[std::size_t(silo::prof::Tag::Core)],
             "s"},
            {"mc.host_s", domain_s[std::size_t(silo::prof::Tag::Mc)], "s"},
            {"nvm.host_s", domain_s[std::size_t(silo::prof::Tag::Nvm)], "s"},
            {"log.host_s",
             domain_s[std::size_t(silo::prof::Tag::LogScheme)], "s"},
            {"fig12_gap_pct", extra("fig12_gap_pct"), "%"},
            {"fig11_gap_pct", extra("fig11_gap_pct"), "%"},
            {"bench.ref_kernel_ms", traced_drift.medianMs(), "ms"},
            {"bench.raw_setup_s", median(setup_raw), "s"},
            {"bench.raw_timed_s", timed_raw, "s"},
            {"bench.trace_overhead_frac", overhead, "ratio"},
            {"bench.span_coverage_frac", st.coverage, "ratio"},
            {"bench.domain_sum_frac",
             run_s + drain_s > 0 ? domain_sum / (run_s + drain_s) : 0,
             "ratio"},
        };
        for (const auto &[k, v] : c.simulated()) {
            const char *unit = k.find("ratio") != std::string::npos
                                   ? "ratio"
                                   : "count";
            run.metrics.push_back({k, v, unit});
        }
        detail << ",\"traced\":{\"raw_s\":" << jsonNum(traced_raw)
               << ",\"kernel_median_ms\":"
               << jsonNum(traced_drift.medianMs())
               << ",\"corrected_s\":" << jsonNum(traced_s)
               << ",\"op_span_sum_s\":"
               << jsonNum(traced_drift.correct(st.opSum))
               << ",\"op_share_of_pass\":" << jsonNum(ops_share)
               << ",\"domain_sum_s\":" << jsonNum(domain_sum)
               << ",\"op_min_coverage\":" << jsonNum(st.minCoverage)
               << ",\"ops_under_95pct_coverage\":" << st.opsUnder95 << "}";
    }
    detail << ",\"problems\":[";
    for (std::size_t i = 0; i < run.problems.size(); ++i)
        detail << (i ? "," : "") << jsonString(run.problems[i]);
    detail << "]}";
    run.detail = detail.str();
    return run;
}

void
printResult(const Run &run)
{
    std::cout << run.detail << "\n";
    std::cout << "{\"correct\": " << (run.correct ? "true" : "false")
              << ", \"attempted\": " << run.attempted
              << ", \"failed\": " << run.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < run.metrics.size(); ++i) {
        const Metric &m = run.metrics[i];
        std::cout << (i ? ", " : "") << jsonString(m.name)
                  << ": {\"value\": " << jsonNum(m.value)
                  << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
}

/**
 * The benchmark's own checks: its failure accounting fires on a
 * seeded checker bug and on one flipped media word, and stays at zero
 * without them.
 */
int
selfTest()
{
    int failures = 0;
    auto expect = [&failures](bool ok, const std::string &what) {
        std::cout << (ok ? "ok   " : "FAIL ") << what << std::endl;
        failures += !ok;
    };
    auto onePass = [](const std::string &name, Options opts) {
        std::unique_ptr<Workload> w = makeWorkload(name, opts);
        Drift drift;
        PassContext setup(opts, drift, nullptr);
        w->setup(setup);
        PassContext ctx(opts, drift, nullptr);
        w->pass(ctx);
        return ctx;
    };

    Options litmus;
    litmus.seconds = 0.1;
    PassContext clean = onePass("litmus_crash", litmus);
    expect(clean.attempted > 0 && clean.failed == 0,
           "litmus_crash without a mutation: " +
               std::to_string(clean.failed) + " failed of " +
               std::to_string(clean.attempted));
    litmus.mutation = silo::MutationKind::SkipCommitMarker;
    PassContext mutant = onePass("litmus_crash", litmus);
    expect(mutant.failed > 0,
           "litmus_crash with skip-commit-marker: " +
               std::to_string(mutant.failed) + " failed");

    for (const char *name : {"eval_matrix", "long_horizon"}) {
        Options opts;
        PassContext base = onePass(name, opts);
        opts.flipWord = true;
        PassContext flipped = onePass(name, opts);
        std::int64_t words = std::int64_t(flipped.counts.mismatchWords) -
                             std::int64_t(base.counts.mismatchWords);
        bool first_fails = !flipped.failures.empty() &&
                           (base.failures.empty() ||
                            flipped.failures.front() != base.failures.front() ||
                            flipped.failed > base.failed);
        expect(std::abs(words) == 1 && first_fails,
               std::string(name) + " oracle flags one flipped word (" +
                   std::to_string(base.failed) + " -> " +
                   std::to_string(flipped.failed) + " failed ops)");
    }
    return failures ? 1 : 0;
}

int
usage()
{
    std::cerr << "usage: perfbench --workload <eval_matrix|litmus_crash|"
                 "long_horizon> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       perfbench --selftest\n";
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    pinEnvironment();
    std::string workload;
    Options opts;
    bool trace = false;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                std::exit(usage());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                workload = value();
            else if (a == "--seed")
                opts.seed = std::stoull(value());
            else if (a == "--seconds")
                opts.seconds = std::stod(value());
            else if (a == "--trace")
                trace = std::stoi(value()) != 0;
            else if (a == "--selftest")
                self_test = true;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    try {
        if (self_test)
            return selfTest();
        if (!makeWorkload(workload, opts) || !(opts.seconds > 0))
            return usage();
        printResult(runWorkload(workload, opts, trace));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
