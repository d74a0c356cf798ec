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
        // One System per scheme: its forward run crashes a copy after
        // every (strided) event, then finishes as the completion case
        // (harness::sweepCrashes()). A scheme's copies end at its first
        // failing one, the only one the findings below read, or once
        // the live checker holds a violation: the finding is then the
        // completion's. Each run writes only its own pre-sized slots,
        // so results do not depend on the job count.
        std::vector<FuzzCaseResult> completions(schemes.size());
        std::vector<FuzzCaseResult> failures(schemes.size());
        harness::Sweep::parallelFor(
            schemes.size(), jobs, [&](std::size_t s) {
                prof::TimedScope scope(prof::currentThreadProfile(),
                                       prof::Tag::Simulate);
                harness::System sys(
                    litmusSimConfig(threads, schemes[s], opts.mutation,
                                    opts.segmented),
                    traces);
                std::uint64_t events = harness::sweepCrashes(
                    sys, opts.crashStride,
                    [&](std::uint64_t k, const harness::DomainCopy &c) {
                        if (!sys.checker()->clean())
                            return false;
                        if (c.checker->clean())
                            return true;
                        failures[s] = checkerVerdict(*c.checker, k);
                        return false;
                    });
                completions[s] = checkerVerdict(*sys.checker(), 0);
                completions[s].executedEvents = events;
            });

        // One completion case per scheme, plus a crash case per swept
        // index of every scheme whose completion is clean.
        std::uint64_t crash_cases = 0;
        for (const FuzzCaseResult &completion : completions) {
            std::uint64_t e = completion.executedEvents;
            if (completion.clean() && e != 0)
                crash_cases += (e - 1) / opts.crashStride + 1;
        }
        result.casesRun += schemes.size() + crash_cases;
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

        // First failing case per scheme -> shrink -> fixture; a
        // failing completion (crash index 0) comes first.
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const FuzzCaseResult &failed =
                completions[s].clean() ? failures[s] : completions[s];
            if (failed.clean())
                continue;
            const check::Violation &first = failed.violations.front();
            const std::uint64_t crash = first.crashIndex;

            FuzzFinding finding;
            finding.programName = program.name;
            finding.scheme = schemes[s];
            finding.mutation = opts.mutation;
            finding.kind = first.kind;
            finding.original = first;
            finding.crashIndex = crash;

            // "Fails the same way" = same scheme + mutation yields a
            // violation of the same kind.
            const check::ViolationKind kind = first.kind;
            ShrinkOracle oracle =
                [&](const LitmusProgram &candidate,
                    std::uint64_t crash_index) {
                    FuzzCaseConfig cc;
                    cc.scheme = schemes[s];
                    cc.mutation = opts.mutation;
                    cc.crashIndex = crash_index;
                    cc.segmented = opts.segmented;
                    const FuzzCaseResult r =
                        runLitmusCase(candidate, cc).verdict();
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
