#include "fuzz/campaign.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/fixture.hh"
#include "fuzz/fuzz_runner.hh"
#include "fuzz/shrink.hh"
#include "harness/profiling.hh"
#include "harness/sweep.hh"
#include "harness/walltime.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"

namespace silo::fuzz
{

using workload::LitmusProgram;

namespace
{

/** @return pointer to the first violation of @p kind, or nullptr. */
const check::Violation *
firstOfAnyKind(const FuzzCaseResult &result)
{
    return result.violations.empty() ? nullptr
                                     : &result.violations.front();
}

std::string
writeFixture(const FuzzOptions &opts, const FuzzFinding &finding)
{
    LitmusFixture fixture;
    fixture.program = finding.shrunk;
    fixture.scheme = finding.scheme;
    fixture.crashIndex = finding.shrunkCrashIndex;
    fixture.mutation = finding.mutation;
    fixture.segmented = opts.segmented;
    fixture.expect = finding.mutation == MutationKind::None
                         ? "clean"
                         : check::violationName(finding.kind);
    std::ostringstream prov;
    prov << "seed=" << opts.seed << " program=" << finding.programName
         << " kind=" << check::violationName(finding.kind)
         << " crash=" << finding.crashIndex;
    fixture.provenance = prov.str();

    std::filesystem::create_directories(opts.outDir);
    std::string path = opts.outDir + "/" + finding.programName + "-" +
                       schemeName(finding.scheme);
    if (finding.mutation != MutationKind::None)
        path += std::string("-") + mutationName(finding.mutation);
    if (opts.segmented)
        path += "-seg";
    path += ".litmus";
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write litmus fixture: " + path);
    out << serializeFixture(fixture);
    return path;
}

} // namespace

std::string
FuzzCampaignResult::summaryJson(const FuzzOptions &opts) const
{
    std::ostringstream os;
    os << "{\n"
       << "  \"fuzzer\": \"litmus-v1\",\n"
       << "  \"seed\": " << opts.seed << ",\n"
       << "  \"mutation\": \"" << mutationName(opts.mutation)
       << "\",\n"
       << "  \"crash_stride\": " << opts.crashStride << ",\n"
       << "  \"segmented\": " << (opts.segmented ? "true" : "false")
       << ",\n"
       << "  \"programs\": " << programsRun << ",\n"
       << "  \"cases\": " << casesRun << ",\n"
       << "  \"crash_cases\": " << crashCases << ",\n"
       << "  \"budget_exhausted\": "
       << (budgetExhausted ? "true" : "false") << ",\n"
       << "  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const FuzzFinding &f = findings[i];
        os << (i ? ",\n    {" : "\n    {")
           << "\"program\": \"" << jsonEscape(f.programName)
           << "\", \"scheme\": \"" << schemeName(f.scheme)
           << "\", \"mutation\": \"" << mutationName(f.mutation)
           << "\", \"kind\": \"" << check::violationName(f.kind)
           << "\", \"crash\": " << f.crashIndex
           << ", \"shrunk_crash\": " << f.shrunkCrashIndex
           << ", \"shrunk_threads\": " << f.shrunk.threads.size()
           << ", \"shrunk_txs\": " << f.shrunk.txCount()
           << ", \"shrunk_ops\": " << f.shrunk.opCount()
           << ", \"oracle_calls\": " << f.oracleCalls
           << ", \"fixture\": \"" << jsonEscape(f.fixturePath)
           << "\", \"original\": " << f.original.toJson() << "}";
    }
    os << (findings.empty() ? "]\n" : "\n  ]\n") << "}\n";
    return os.str();
}

FuzzCampaignResult
runFuzzCampaign(const FuzzOptions &opts, std::ostream *log)
{
    if (opts.maxPrograms == 0 && !(opts.budgetSeconds > 0))
        fatal("fuzz campaign needs --programs or a wall-clock budget");
    if (opts.crashStride == 0)
        fatal("fuzz campaign: crash stride must be positive");
    std::vector<SchemeKind> schemes = opts.schemes;
    if (schemes.empty())
        schemes.assign(std::begin(allSchemes), std::end(allSchemes));

    FuzzCampaignResult result;
    const double start = harness::wallSeconds();
    Rng rng(opts.seed);
    // SILO_PROF: the campaign fans out on its own, not through
    // Sweep::run(), so it installs the profiler itself.
    harness::profilerFromEnv();
    const unsigned jobs = harness::Sweep::defaultJobs();

    for (std::uint64_t index = 0;; ++index) {
        if (opts.maxPrograms != 0 && index >= opts.maxPrograms)
            break;
        if (opts.budgetSeconds > 0 &&
            harness::wallSeconds() - start >= opts.budgetSeconds) {
            result.budgetExhausted = true;
            break;
        }

        std::ostringstream label;
        label << "fuzz-" << opts.seed << "-" << index;
        LitmusProgram program =
            generateLitmus(rng, opts.gen, label.str());
        const unsigned threads = unsigned(program.threads.size());
        ++result.programsRun;

        // One compile per program; every case below reads it.
        workload::WorkloadTraces traces;
        {
            prof::TimedScope scope(prof::currentThreadProfile(),
                                   prof::Tag::TraceCompile);
            traces = workload::litmusTraces(program);
        }
        auto run_case = [&](SchemeKind scheme, std::uint64_t crash) {
            FuzzCaseConfig cc;
            cc.scheme = scheme;
            cc.mutation = opts.mutation;
            cc.crashIndex = crash;
            cc.segmented = opts.segmented;
            prof::TimedScope scope(prof::currentThreadProfile(),
                                   prof::Tag::Simulate);
            return runLitmusCase(traces, threads, cc);
        };

        // Phase A: completion run per scheme (bounds the crash sweep).
        // Each case writes only its own pre-sized slot, so results do
        // not depend on the job count.
        std::vector<FuzzCaseResult> completions(schemes.size());
        harness::Sweep::parallelFor(
            schemes.size(), jobs, [&](std::size_t s) {
                completions[s] = run_case(schemes[s], 0);
            });
        result.casesRun += schemes.size();

        // Phase B: crash at every (strided) event index of every
        // scheme whose completion run was still clean.
        std::vector<std::pair<std::size_t, std::uint64_t>> cases;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            if (!completions[s].clean())
                continue; // already failing without a crash
            for (std::uint64_t k = 1;
                 k <= completions[s].executedEvents;
                 k += opts.crashStride)
                cases.emplace_back(s, k);
        }
        std::vector<FuzzCaseResult> crashed(cases.size());
        harness::Sweep::parallelFor(
            cases.size(), jobs, [&](std::size_t c) {
                crashed[c] =
                    run_case(schemes[cases[c].first], cases[c].second);
            });
        result.casesRun += cases.size();
        result.crashCases += cases.size();

        if (log) {
            *log << "fuzz: " << program.name << ": " << threads
                 << " thread(s), " << program.txCount() << " tx, "
                 << program.opCount() << " ops, " << cases.size()
                 << " crash case(s), E=[";
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                *log << (s ? " " : "") << schemeName(schemes[s]) << ":"
                     << completions[s].executedEvents;
            }
            *log << "]\n";
        }

        // First failing case per scheme -> shrink -> fixture.
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const check::Violation *first = nullptr;
            std::uint64_t crash = 0;
            if (!completions[s].clean()) {
                first = firstOfAnyKind(completions[s]);
            } else {
                for (std::size_t c = 0; c < cases.size(); ++c) {
                    if (cases[c].first != s || crashed[c].clean())
                        continue;
                    first = firstOfAnyKind(crashed[c]);
                    crash = cases[c].second;
                    break;
                }
            }
            if (!first)
                continue;

            FuzzFinding finding;
            finding.programName = program.name;
            finding.scheme = schemes[s];
            finding.mutation = opts.mutation;
            finding.kind = first->kind;
            finding.original = *first;
            finding.crashIndex = crash;

            // "Fails the same way" = same scheme + mutation yields a
            // violation of the same kind.
            const check::ViolationKind kind = first->kind;
            ShrinkOracle oracle =
                [&](const LitmusProgram &candidate,
                    std::uint64_t crash_index) {
                    FuzzCaseConfig cc;
                    cc.scheme = schemes[s];
                    cc.mutation = opts.mutation;
                    cc.crashIndex = crash_index;
                    cc.segmented = opts.segmented;
                    FuzzCaseResult r = runLitmusCase(candidate, cc);
                    for (const check::Violation &v : r.violations)
                        if (v.kind == kind)
                            return true;
                    return false;
                };
            ShrinkResult shrunk = shrinkLitmus(program, crash, oracle);
            finding.shrunk = std::move(shrunk.program);
            finding.shrunkCrashIndex = shrunk.crashIndex;
            finding.oracleCalls = shrunk.oracleCalls;
            result.casesRun += shrunk.oracleCalls;

            if (!opts.outDir.empty())
                finding.fixturePath = writeFixture(opts, finding);
            if (log) {
                *log << "fuzz: FAIL " << program.name << " "
                     << schemeName(finding.scheme) << " kind="
                     << check::violationName(finding.kind)
                     << " crash=" << finding.crashIndex
                     << " -> shrunk " << finding.shrunk.txCount()
                     << " tx/" << finding.shrunk.opCount()
                     << " op crash=" << finding.shrunkCrashIndex
                     << " (" << finding.oracleCalls
                     << " oracle calls)"
                     << (finding.fixturePath.empty()
                             ? ""
                             : " -> " + finding.fixturePath)
                     << "\n";
            }
            result.findings.push_back(std::move(finding));
        }
    }
    return result;
}

} // namespace silo::fuzz
