/**
 * @file
 * Command-line front end of the persistency litmus fuzzer (src/fuzz).
 *
 *   litmus fuzz [--seed N] [--programs N] [--budget SECONDS]
 *               [--stride N] [--mutation NAME] [--scheme NAME]
 *               [--segmented] [--out DIR] [-v]
 *       Generate adversarial litmus programs, sweep a crash at every
 *       (strided) event index of every scheme, shrink each failing
 *       case and write fixtures to --out. Prints the campaign summary
 *       JSON on stdout; exits non-zero if any finding had no seeded
 *       mutation (i.e. a real scheme bug).
 *
 *   litmus replay FILE...
 *       Replay fixture files (tests/check/litmus/): all six
 *       schemes must be clean, and a recorded mutation must still be
 *       caught. Exits non-zero on any broken promise.
 *
 *   litmus gen [--seed N] [--programs N]
 *       Print the generated programs (debug aid for the generator).
 *
 * Numeric flags take unsigned decimal integers (--budget in whole
 * seconds); a malformed value, like any other configuration error,
 * exits 2. A fixed --seed and --programs reproduce a run
 * byte-for-byte; --budget alone stops between programs, so partial
 * runs are prefixes of longer ones. --segmented runs every case under
 * the segmented log lifecycle's tiny geometry, sweeping crashes into
 * the run's cleaner and checkpoint events (the nightly log-pressure
 * soak). A crash index past the run's stop point crashes the
 * stop-point state, so the settle window's lifecycle ticks add indices
 * but no new states.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/campaign.hh"
#include "fuzz/fixture.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"

namespace
{

using namespace silo;

[[noreturn]] void
usage(const std::string &what = "")
{
    if (!what.empty())
        std::cerr << "litmus: " << what << "\n";
    std::cerr <<
        "usage: litmus fuzz [--seed N] [--programs N] [--budget S]\n"
        "                   [--stride N] [--mutation NAME]\n"
        "                   [--scheme NAME] [--segmented]\n"
        "                   [--out DIR] [-v]\n"
        "       litmus replay FILE...\n"
        "       litmus gen [--seed N] [--programs N]\n";
    std::exit(2);
}

/** Flag parser over argv[2..]; every value flag takes one argument. */
struct Args
{
    std::uint64_t seed = 1;
    std::uint64_t programs = 0;
    std::uint64_t budgetSeconds = 0;
    std::uint64_t stride = 1;
    std::string mutation = "none";
    std::string scheme;
    std::string outDir;
    bool segmented = false;
    bool verbose = false;
    std::vector<std::string> positional;

    Args(int argc, char **argv)
    {
        auto value = [&](int &i, const char *flag) -> std::string {
            if (i + 1 >= argc)
                usage(std::string(flag) + " needs a value");
            return argv[++i];
        };
        auto number = [&](int &i, const char *flag) {
            return harness::parseUnsigned(flag, value(i, flag));
        };
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--seed")
                seed = number(i, "--seed");
            else if (arg == "--programs")
                programs = number(i, "--programs");
            else if (arg == "--budget")
                budgetSeconds = number(i, "--budget");
            else if (arg == "--stride")
                stride = number(i, "--stride");
            else if (arg == "--mutation")
                mutation = value(i, "--mutation");
            else if (arg == "--scheme")
                scheme = value(i, "--scheme");
            else if (arg == "--out")
                outDir = value(i, "--out");
            else if (arg == "--segmented")
                segmented = true;
            else if (arg == "-v")
                verbose = true;
            else if (!arg.empty() && arg[0] == '-')
                usage("unknown flag " + arg);
            else
                positional.push_back(arg);
        }
    }

    fuzz::FuzzOptions
    fuzzOptions() const
    {
        fuzz::FuzzOptions opts;
        opts.seed = seed;
        // Default shape: a fixed small program count, overridden by
        // an explicit wall-clock budget (the nightly mode).
        opts.maxPrograms = programs;
        opts.budgetSeconds = double(budgetSeconds);
        if (opts.maxPrograms == 0 && budgetSeconds == 0)
            opts.maxPrograms = 5;
        opts.crashStride = stride;
        opts.mutation = mutationFromName(mutation);
        if (!scheme.empty())
            opts.schemes.push_back(schemeFromName(scheme));
        opts.outDir = outDir;
        opts.segmented = segmented;
        return opts;
    }
};

int
cmdFuzz(const Args &args)
{
    fuzz::FuzzOptions opts = args.fuzzOptions();
    fuzz::FuzzCampaignResult result = fuzz::runFuzzCampaign(
        opts, args.verbose ? &std::cerr : nullptr);
    std::cout << result.summaryJson(opts);
    // Findings under a seeded mutation are the expected self-test
    // outcome; findings on the real schemes are bugs.
    for (const fuzz::FuzzFinding &finding : result.findings)
        if (finding.mutation == MutationKind::None)
            return 1;
    return 0;
}

int
cmdReplay(const Args &args)
{
    if (args.positional.empty())
        usage("replay needs at least one fixture file");
    int failures = 0;
    for (const std::string &path : args.positional) {
        fuzz::LitmusFixture fixture = fuzz::loadFixtureFile(path);
        std::vector<std::string> broken =
            fuzz::replayFixture(fixture);
        if (broken.empty()) {
            std::cout << "ok " << path << "\n";
            continue;
        }
        ++failures;
        std::cout << "FAIL " << path << "\n";
        for (const std::string &msg : broken)
            std::cout << "  " << msg << "\n";
    }
    return failures == 0 ? 0 : 1;
}

int
cmdGen(const Args &args)
{
    Rng rng(args.seed);
    fuzz::LitmusGenConfig gen;
    std::uint64_t count = args.programs ? args.programs : 1;
    for (std::uint64_t i = 0; i < count; ++i) {
        workload::LitmusProgram program = fuzz::generateLitmus(
            rng, gen,
            "fuzz-" + std::to_string(args.seed) + "-" +
                std::to_string(i));
        std::cout << workload::serializeLitmus(program);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    try {
        Args args(argc, argv);
        if (cmd == "fuzz")
            return cmdFuzz(args);
        if (cmd == "replay")
            return cmdReplay(args);
        if (cmd == "gen")
            return cmdGen(args);
    } catch (const FatalError &e) {
        std::cerr << "litmus: " << e.what() << "\n";
        return 2;
    }
    usage("unknown command " + cmd);
}
