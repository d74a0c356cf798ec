#include "fuzz/campaign.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/fixture.hh"
#include "fuzz/fuzz_runner.hh"
#include "fuzz/shrink.hh"
#include "harness/profiling.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
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
        // Phase A: completion run per scheme (bounds the crash sweep).
        // Each run writes only its own pre-sized slot, so results do
        // not depend on the job count; so does each sweep of phase B.
        std::vector<FuzzCaseResult> completions(schemes.size());
        harness::Sweep::parallelFor(
            schemes.size(), jobs, [&](std::size_t s) {
                FuzzCaseConfig cc;
                cc.scheme = schemes[s];
                cc.mutation = opts.mutation;
                cc.segmented = opts.segmented;
                prof::TimedScope scope(prof::currentThreadProfile(),
                                       prof::Tag::Simulate);
                completions[s] = runLitmusCase(traces, threads, cc);
            });
        result.casesRun += schemes.size();

        // Phase B: crash at every (strided) event index of every
        // scheme whose completion run was still clean, from one
        // forward run per scheme; a scheme's sweep ends at its first
        // failing index, the only one the findings below read.
        std::vector<std::size_t> swept;
        std::uint64_t crash_cases = 0;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            if (!completions[s].clean())
                continue; // already failing without a crash
            swept.push_back(s);
            std::uint64_t e = completions[s].executedEvents;
            crash_cases += e == 0 ? 0 : (e - 1) / opts.crashStride + 1;
        }
        std::vector<FuzzCaseResult> failures(schemes.size());
        harness::Sweep::parallelFor(
            swept.size(), jobs, [&](std::size_t i) {
                std::size_t s = swept[i];
                prof::TimedScope scope(prof::currentThreadProfile(),
                                       prof::Tag::Simulate);
                harness::System sys(
                    litmusSimConfig(threads, schemes[s], opts.mutation,
                                    opts.segmented),
                    traces);
                harness::sweepCrashes(
                    sys, completions[s].executedEvents, opts.crashStride,
                    [&](std::uint64_t k, const harness::DomainCopy &c) {
                        if (c.checker->clean())
                            return true;
                        failures[s].violations = c.checker->violations();
                        for (check::Violation &v : failures[s].violations)
                            v.crashIndex = k;
                        return false;
                    });
            });
        result.casesRun += crash_cases;
        result.crashCases += crash_cases;

        if (log) {
            *log << "fuzz: " << program.name << ": " << threads
                 << " thread(s), " << program.txCount() << " tx, "
                 << program.opCount() << " ops, " << crash_cases
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
            } else if (!failures[s].clean()) {
                first = firstOfAnyKind(failures[s]);
                crash = first->crashIndex;
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
