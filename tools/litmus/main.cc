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
 * Every flag falls back to an environment knob so CI can steer the
 * nightly job without editing the workflow command: SILO_FUZZ_SEED,
 * SILO_FUZZ_PROGRAMS, SILO_FUZZ_BUDGET_S, SILO_FUZZ_CRASH_STRIDE,
 * SILO_FUZZ_MUTATION, SILO_FUZZ_SEGMENTED, SILO_FUZZ_OUT (flags win).
 * A fixed --seed and --programs reproduce a run byte-for-byte;
 * --budget alone stops between programs, so partial runs are prefixes
 * of longer ones. --segmented runs every case under the segmented log
 * lifecycle's tiny geometry, sweeping crashes into the run's cleaner
 * and checkpoint events (the nightly log-pressure soak). A crash index
 * past the run's stop point crashes the stop-point state, so the
 * settle window's lifecycle ticks add indices but no new states.
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
    std::uint64_t seed;
    std::uint64_t programs;
    double budgetSeconds;
    std::uint64_t stride;
    std::string mutation;
    std::string scheme;
    std::string outDir;
    bool segmented = false;
    bool verbose = false;
    std::vector<std::string> positional;

    Args(int argc, char **argv)
        : seed(harness::envOr("SILO_FUZZ_SEED", 1)),
          programs(harness::envOr("SILO_FUZZ_PROGRAMS", 0)),
          budgetSeconds(double(harness::envOr("SILO_FUZZ_BUDGET_S", 0))),
          stride(harness::envOr("SILO_FUZZ_CRASH_STRIDE", 1)),
          mutation(harness::envStrOr("SILO_FUZZ_MUTATION", "none")),
          outDir(harness::envStrOr("SILO_FUZZ_OUT", "")),
          segmented(harness::envOr("SILO_FUZZ_SEGMENTED", 0) != 0)
    {
        auto value = [&](int &i, const char *flag) -> std::string {
            if (i + 1 >= argc)
                usage(std::string(flag) + " needs a value");
            return argv[++i];
        };
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--seed")
                seed = std::stoull(value(i, "--seed"));
            else if (arg == "--programs")
                programs = std::stoull(value(i, "--programs"));
            else if (arg == "--budget")
                budgetSeconds = std::stod(value(i, "--budget"));
            else if (arg == "--stride")
                stride = std::stoull(value(i, "--stride"));
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
        opts.budgetSeconds = budgetSeconds;
        if (opts.maxPrograms == 0 && !(opts.budgetSeconds > 0))
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
    Args args(argc, argv);
    if (cmd == "fuzz")
        return cmdFuzz(args);
    if (cmd == "replay")
        return cmdReplay(args);
    if (cmd == "gen")
        return cmdGen(args);
    usage("unknown command " + cmd);
}
