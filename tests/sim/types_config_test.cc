/** @file Unit tests for type helpers, SimConfig validation and tables. */

#include <gtest/gtest.h>

#include <sstream>

#include "nvm/pm_device.hh"
#include "sim/config.hh"
#include "sim/table.hh"
#include "sim/types.hh"

namespace silo
{
namespace
{

TEST(Types, Alignment)
{
    EXPECT_EQ(wordAlign(0x1007), 0x1000u);
    EXPECT_EQ(lineAlign(0x10ff), 0x10c0u);
    EXPECT_EQ(pmLineAlign(0x11ff), 0x1100u);
    EXPECT_EQ(wordInLine(0x38), 7u);
    EXPECT_EQ(wordInLine(0x40), 0u);
}

TEST(Types, CyclesFromNs)
{
    // Table II: 50 ns read, 150 ns write at 2 GHz.
    EXPECT_EQ(cyclesFromNs(50.0), 100u);
    EXPECT_EQ(cyclesFromNs(150.0), 300u);
}

TEST(Types, LogEntrySizesMatchPaper)
{
    // §III-F: undo entry is 18B; §VI-D: undo+redo entry is 26B.
    EXPECT_EQ(undoLogEntryBytes, 18u);
    EXPECT_EQ(undoRedoLogEntryBytes, 26u);
}

TEST(SimConfig, DefaultsMatchTableII)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.numCores, 8u);
    EXPECT_EQ(cfg.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.l1d.latency, 4u);
    EXPECT_EQ(cfg.l2.latency, 12u);
    EXPECT_EQ(cfg.l3.latency, 28u);
    EXPECT_EQ(cfg.wpqEntries, 64u);
    EXPECT_EQ(nvm::pmReadCycles, 100u);   // 50 ns at 2 GHz
    EXPECT_EQ(cfg.logBufferEntries, 20u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SimConfig, ValidateRejectsNonsense)
{
    SimConfig cfg;
    cfg.numCores = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = SimConfig{};
    cfg.logBufferEntries = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = SimConfig{};
    cfg.wpqEntries = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(SchemeName, AllKindsNamed)
{
    EXPECT_STREQ(schemeName(SchemeKind::Base), "Base");
    EXPECT_STREQ(schemeName(SchemeKind::Fwb), "FWB");
    EXPECT_STREQ(schemeName(SchemeKind::MorLog), "MorLog");
    EXPECT_STREQ(schemeName(SchemeKind::Lad), "LAD");
    EXPECT_STREQ(schemeName(SchemeKind::Silo), "Silo");
}

TEST(Logging, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("boom"), PanicError);
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t("Demo");
    t.header({"name", "value"});
    t.row({"a", "1.000"});
    t.row({"longer", "2.500"});
    std::ostringstream os;
    t.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("== Demo =="), std::string::npos);
    EXPECT_NE(text.find("longer"), std::string::npos);
    // Columns aligned: "a" padded to width of "longer".
    EXPECT_NE(text.find("a       1.000"), std::string::npos);
}

TEST(TablePrinter, NumFormatsDigits)
{
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::num(2.0, 3), "2.000");
}

} // namespace
} // namespace silo
