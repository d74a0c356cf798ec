/**
 * @file
 * Tests for the declarative litmus workload: text round-trips,
 * validation, trace compilation (including `tx abort`), and the
 * deterministic initial image.
 */

#include <gtest/gtest.h>

#include "sim/address_map.hh"
#include "workload/litmus.hh"
#include "workload/trace_gen.hh"

namespace silo::workload
{
namespace
{

LitmusProgram
twoThreadProgram()
{
    LitmusProgram p;
    p.name = "overlap-2t";
    LitmusThread t0;
    LitmusTx a;
    a.ops.push_back({LitmusOp::Kind::Store, 0x40, 7});
    a.ops.push_back({LitmusOp::Kind::Load, 0x40, 0});
    t0.txs.push_back(a);
    LitmusTx b;
    b.ops.push_back({LitmusOp::Kind::Store, 0x48, 8});
    b.commit = false; // final tx stays open
    t0.txs.push_back(b);
    p.threads.push_back(t0);

    LitmusThread t1;
    LitmusTx c;
    c.ops.push_back({LitmusOp::Kind::Store, 0x40, 9});
    t1.txs.push_back(c);
    t1.txs.push_back(LitmusTx{}); // empty committed tx
    p.threads.push_back(t1);
    return p;
}

TEST(LitmusText, SerializeParseRoundTrip)
{
    LitmusProgram p = twoThreadProgram();
    std::vector<std::pair<std::string, std::string>> meta = {
        {"scheme", "Silo"}, {"provenance", "seed=7 extra words"}};
    std::string text = serializeLitmus(p, meta);

    LitmusFile parsed = parseLitmus(text);
    EXPECT_EQ(parsed.meta, meta);
    EXPECT_EQ(serializeLitmus(parsed.program, parsed.meta), text);
    EXPECT_EQ(parsed.program.name, "overlap-2t");
    ASSERT_EQ(parsed.program.threads.size(), 2u);
    EXPECT_FALSE(parsed.program.threads[0].txs.back().commit);
    EXPECT_TRUE(parsed.program.threads[1].txs.back().ops.empty());
    EXPECT_EQ(parsed.program.txCount(), 4u);
    EXPECT_EQ(parsed.program.opCount(), 4u);
}

TEST(LitmusText, ParseRejectsMalformedInput)
{
    EXPECT_THROW(parseLitmus("not litmus\n"), FatalError);
    EXPECT_THROW(parseLitmus("litmus v1\nstore 0x0 1\n"), FatalError);
    EXPECT_THROW(
        parseLitmus("litmus v1\nthread 0\ntx\nstore zzz 1\nend\n"),
        FatalError);
    EXPECT_THROW(parseLitmus("litmus v1\nthread 0\ntx\nstore 0x0 1\n"),
                 FatalError); // unterminated tx
    // Numbers are decimal or 0x hex: no sign, no octal, no junk, no
    // overflow.
    for (const char *bad : {"-8 1", "0x40 -1", "+8 1", "010 1", "0x 1",
                            "0X40 1", "8x 1", "0x40 18446744073709551616"}) {
        EXPECT_THROW(parseLitmus(std::string("litmus v1\nthread 0\ntx\n"
                                             "store ") +
                                 bad + "\nend\n"),
                     FatalError)
            << bad;
    }
}

TEST(LitmusValidate, RejectsBadShapes)
{
    EXPECT_THROW(validateLitmus(LitmusProgram{}), FatalError);

    LitmusProgram unaligned = twoThreadProgram();
    unaligned.threads[0].txs[0].ops[0].offset = 0x41;
    EXPECT_THROW(validateLitmus(unaligned), FatalError);

    LitmusProgram outside = twoThreadProgram();
    outside.threads[0].txs[0].ops[0].offset = addr_map::dataArenaBytes;
    EXPECT_THROW(validateLitmus(outside), FatalError);

    LitmusProgram early_abort = twoThreadProgram();
    early_abort.threads[0].txs[0].commit = false;
    EXPECT_THROW(validateLitmus(early_abort), FatalError);
}

TEST(LitmusTraces, CompilesBracketsAndHonoursAbort)
{
    WorkloadTraces traces = litmusTraces(twoThreadProgram());
    ASSERT_EQ(traces.threads.size(), 2u);

    // Thread 0's final transaction stays open: its trace ends inside a
    // transaction (TxBegin without a matching TxEnd).
    const ThreadTrace &t0 = traces.threads[0];
    int depth = 0;
    for (const auto &op : t0.ops) {
        if (op.kind == TxOp::Kind::TxBegin)
            ++depth;
        else if (op.kind == TxOp::Kind::TxEnd)
            --depth;
        if (op.kind == TxOp::Kind::Store ||
            op.kind == TxOp::Kind::Load) {
            EXPECT_EQ(addr_map::dataArenaOwner(op.addr), 0u);
            EXPECT_EQ(op.addr % wordBytes, 0u);
        }
    }
    EXPECT_EQ(depth, 1) << "tx abort must leave the final tx open";

    // Thread 1 commits everything, including the empty transaction.
    const ThreadTrace &t1 = traces.threads[1];
    unsigned begins = 0, ends = 0;
    for (const auto &op : t1.ops) {
        begins += op.kind == TxOp::Kind::TxBegin;
        ends += op.kind == TxOp::Kind::TxEnd;
    }
    EXPECT_EQ(begins, ends);
    EXPECT_GE(begins, 2u);
}

TEST(LitmusTraces, InitialImageIsDeterministic)
{
    WorkloadTraces traces = litmusTraces(twoThreadProgram());
    // Every touched word carries litmusInitialValue(offset) in the
    // initial image; stores during the run overwrite the functional
    // copy only.
    bool saw_setup_value = false;
    for (const auto &[addr, value] : traces.initialMemory) {
        if (!addr_map::inDataRegion(addr))
            continue;
        Addr offset =
            (addr - addr_map::dataRegionBase) % addr_map::dataArenaBytes;
        saw_setup_value |= value == litmusInitialValue(offset);
    }
    EXPECT_TRUE(saw_setup_value);

    // Byte-for-byte reproducible compilation.
    WorkloadTraces again = litmusTraces(twoThreadProgram());
    ASSERT_EQ(again.threads.size(), traces.threads.size());
    for (std::size_t t = 0; t < traces.threads.size(); ++t) {
        ASSERT_EQ(again.threads[t].ops.size(),
                  traces.threads[t].ops.size());
    }
}

TEST(LitmusTraces, FactoryPathReplaysPrograms)
{
    // The generic trace generator path (WorkloadKind::Litmus) must
    // also replay programs, `tx abort` included: thread 0's trace ends
    // inside its open final transaction.
    TraceGenConfig cfg;
    cfg.kind = WorkloadKind::Litmus;
    cfg.numThreads = 2;
    cfg.options.litmus = serializeLitmus(twoThreadProgram());
    WorkloadTraces traces = generateTraces(cfg);
    ASSERT_EQ(traces.threads.size(), 2u);
    bool store_seen = false;
    int depth = 0;
    for (const auto &op : traces.threads[0].ops) {
        store_seen |= op.kind == TxOp::Kind::Store && op.value == 7;
        depth += op.kind == TxOp::Kind::TxBegin;
        depth -= op.kind == TxOp::Kind::TxEnd;
    }
    EXPECT_TRUE(store_seen);
    EXPECT_EQ(depth, 1) << "tx abort must leave the final tx open";
    EXPECT_EQ(traces.threads[0].ops.back().kind, TxOp::Kind::Store);
}

} // namespace
} // namespace silo::workload
