/**
 * @file
 * envOr() and parseUnsigned() must either return a faithfully parsed
 * unsigned knob or flag value or refuse loudly: silently mapping
 * SILO_TX=abc to 0 (the old std::stoull behaviour) turns a typo into
 * a zero-transaction run that "passes". Every malformed shape gets a
 * fatal() naming the variable or flag.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/experiment.hh"
#include "sim/logging.hh"

namespace silo::harness
{
namespace
{

// silo-lint: allow(env-doc-parity) synthetic knob that exists only inside this test; documenting it would mislead users
constexpr const char *knob = "SILO_TEST_KNOB";

/** Sets the knob for one test and always unsets it on exit. */
class EnvOr : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        unsetenv(knob);   // NOLINT(concurrency-mt-unsafe)
    }

    void set(const char *value)
    {
        setenv(knob, value, 1);   // NOLINT(concurrency-mt-unsafe)
    }

    /** Expect fatal() whose message names the offending variable. */
    void
    expectFatal(const char *value)
    {
        set(value);
        try {
            envOr(knob, 1);
            FAIL() << "envOr accepted " << knob << "=\"" << value
                   << "\"";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(knob),
                      std::string::npos)
                << "fatal message must name the variable: "
                << e.what();
        }
    }
};

TEST_F(EnvOr, UnsetReturnsFallback)
{
    unsetenv(knob);
    EXPECT_EQ(envOr(knob, 123u), 123u);
}

TEST_F(EnvOr, EmptyReturnsFallback)
{
    set("");
    EXPECT_EQ(envOr(knob, 7u), 7u);
}

TEST_F(EnvOr, ParsesDecimal)
{
    set("500");
    EXPECT_EQ(envOr(knob, 1u), 500u);
}

TEST_F(EnvOr, ParsesZero)
{
    set("0");
    EXPECT_EQ(envOr(knob, 1u), 0u);
}

TEST_F(EnvOr, ParsesUint64Max)
{
    set("18446744073709551615");
    EXPECT_EQ(envOr(knob, 1u), UINT64_MAX);
}

TEST_F(EnvOr, RejectsGarbage)
{
    expectFatal("abc");
}

TEST_F(EnvOr, RejectsNegative)
{
    expectFatal("-5");
}

TEST_F(EnvOr, RejectsTrailingJunk)
{
    expectFatal("10x");
}

TEST_F(EnvOr, RejectsLeadingWhitespace)
{
    expectFatal(" 7");
}

TEST_F(EnvOr, RejectsExplicitPlusSign)
{
    expectFatal("+7");
}

TEST_F(EnvOr, RejectsHexNotation)
{
    expectFatal("0x10");
}

TEST_F(EnvOr, RejectsFractional)
{
    expectFatal("2.5");
}

TEST_F(EnvOr, RejectsOverflow)
{
    expectFatal("18446744073709551616");   // UINT64_MAX + 1
}

TEST(ParseUnsigned, ParsesFlagValues)
{
    EXPECT_EQ(parseUnsigned("--seed", "42"), 42u);
    EXPECT_EQ(parseUnsigned("--budget", "0"), 0u);
}

TEST(ParseUnsigned, RejectsMalformedFlagValuesNamingTheFlag)
{
    for (const char *text : {"abc", "3x", "-5", "", "1.5"}) {
        try {
            parseUnsigned("--seed", text);
            ADD_FAILURE() << "parseUnsigned accepted \"" << text << "\"";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--seed"),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
} // namespace silo::harness
