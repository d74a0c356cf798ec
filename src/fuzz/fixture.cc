#include "fuzz/fixture.hh"

#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace silo::fuzz
{

using workload::LitmusFile;

std::string
serializeFixture(const LitmusFixture &fixture)
{
    std::vector<std::pair<std::string, std::string>> meta;
    meta.emplace_back("scheme", schemeName(fixture.scheme));
    meta.emplace_back("crash", std::to_string(fixture.crashIndex));
    meta.emplace_back("mutation", mutationName(fixture.mutation));
    meta.emplace_back("expect", fixture.expect);
    if (fixture.segmented)
        meta.emplace_back("segmented", "1");
    if (!fixture.provenance.empty())
        meta.emplace_back("provenance", fixture.provenance);
    return serializeLitmus(fixture.program, meta);
}

LitmusFixture
parseFixture(const std::string &text)
{
    LitmusFile file = workload::parseLitmus(text);
    LitmusFixture fixture;
    fixture.program = std::move(file.program);
    for (const auto &[key, value] : file.meta) {
        if (key == "scheme") {
            fixture.scheme = schemeFromName(value);
        } else if (key == "crash") {
            std::optional<std::uint64_t> crash =
                workload::parseLitmusNumber(value);
            if (!crash)
                fatal("litmus fixture: bad crash index \"" + value +
                      "\"");
            fixture.crashIndex = *crash;
        } else if (key == "mutation") {
            fixture.mutation = mutationFromName(value);
        } else if (key == "expect") {
            if (value != "clean")
                check::violationKindFromName(value); // fatal if unknown
            fixture.expect = value;
        } else if (key == "segmented") {
            if (value != "0" && value != "1")
                fatal("litmus fixture: bad segmented flag \"" + value +
                      "\"");
            fixture.segmented = value == "1";
        } else if (key == "provenance") {
            fixture.provenance = value;
        }
        // Unknown keys pass through: the format allows free metadata.
    }
    if (fixture.mutation == MutationKind::None &&
        fixture.expect != "clean") {
        fatal("litmus fixture: `expect " + fixture.expect +
              "` without a mutation");
    }
    if (fixture.mutation != MutationKind::None &&
        fixture.expect == "clean") {
        fatal("litmus fixture: a mutation needs an `expect <kind>` "
              "line naming the violation it provokes");
    }
    return fixture;
}

LitmusFixture
loadFixtureFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read litmus fixture: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseFixture(text.str());
}

namespace
{

void
reportViolations(std::ostringstream &os,
                 const std::vector<check::Violation> &violations)
{
    for (const check::Violation &v : violations)
        os << "\n  " << v.toJson();
}

} // namespace

std::vector<std::string>
replayFixture(const LitmusFixture &fixture)
{
    std::vector<std::string> failures;
    FuzzCaseConfig cfg;
    cfg.crashIndex = fixture.crashIndex;
    cfg.segmented = fixture.segmented;

    // Promise 1: every real scheme replays clean, to completion and
    // crashed at the recorded index (the index is meaningful for the
    // recorded scheme; for the others it still injects a valid crash).
    auto expect_clean = [&](SchemeKind scheme, std::uint64_t crash,
                            const FuzzCaseResult &result) {
        if (result.clean())
            return;
        std::ostringstream os;
        os << fixture.program.name << ": " << schemeName(scheme)
           << "/crash:" << crash << " expected clean, got "
           << result.violations.size() << " violation(s)";
        reportViolations(os, result.violations);
        failures.push_back(os.str());
    };
    for (SchemeKind scheme : allSchemes) {
        cfg.scheme = scheme;
        LitmusCaseResult result = runLitmusCase(fixture.program, cfg);
        expect_clean(scheme, 0, result.completion);
        expect_clean(scheme, fixture.crashIndex, result.crashed);
    }

    // Promise 2: the seeded bug the fixture was shrunk against is
    // still detected, with the expected violation kind.
    if (fixture.mutation != MutationKind::None) {
        cfg.scheme = fixture.scheme;
        cfg.mutation = fixture.mutation;
        const FuzzCaseResult result =
            runLitmusCase(fixture.program, cfg).verdict();
        bool expected_kind_seen = false;
        for (const check::Violation &v : result.violations) {
            if (fixture.expect == check::violationName(v.kind))
                expected_kind_seen = true;
        }
        if (!expected_kind_seen) {
            std::ostringstream os;
            os << fixture.program.name << ": "
               << schemeName(fixture.scheme) << "+"
               << mutationName(fixture.mutation)
               << "/crash:" << fixture.crashIndex
               << " no longer yields a `" << fixture.expect
               << "` violation (got " << result.violations.size()
               << ")";
            reportViolations(os, result.violations);
            failures.push_back(os.str());
        }
    }
    return failures;
}

} // namespace silo::fuzz
