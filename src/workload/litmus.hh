/**
 * @file
 * Declarative litmus programs: small, fully explicit multi-core
 * transaction programs for the persistency fuzzer (src/fuzz/) and the
 * regression fixtures under tests/check/litmus/.
 *
 * A litmus program spells out every store of every transaction of
 * every thread — no data structure, no randomness at replay time — so
 * a failing (program, scheme, crash index) triple found by the fuzzer
 * can be shrunk and committed as a self-contained text file that
 * `tools/litmus` replays bit-for-bit. Addresses are byte offsets into
 * the owning thread's standard PM arena (sim/address_map.hh), keeping
 * the repository-wide invariant that threads never race on values.
 *
 * Text format ("litmus v1"), line oriented, `#` comments:
 *
 *   litmus v1
 *   name overlap-2t          (optional display name)
 *   <key> <value...>         (free metadata, kept for the fuzz layer:
 *                             scheme/crash/expect/provenance...)
 *   thread 0
 *   tx                       (or `tx abort` for an open final tx)
 *   store 0x40 7             (word-aligned byte offset, value)
 *   load 0x40
 *   end
 *   thread 1
 *   ...
 *
 * LitmusWorkload adapts a program to the standard Workload interface
 * (one call = one transaction), and litmusTraces() compiles a program
 * straight into WorkloadTraces — including `tx abort`, which leaves
 * the thread's final transaction open so a crash sweep can observe
 * uncommitted state. generateTraces() hands WorkloadKind::Litmus
 * straight to litmusTraces(), so that path honours `tx abort` too.
 */

#ifndef SILO_WORKLOAD_LITMUS_HH
#define SILO_WORKLOAD_LITMUS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/trace.hh"
#include "workload/workload.hh"

namespace silo::workload
{

/** One operation of a litmus transaction. */
struct LitmusOp
{
    enum class Kind : std::uint8_t
    {
        Load,
        Store,
    };

    Kind kind = Kind::Store;
    /** Word-aligned byte offset into the owning thread's data arena. */
    Addr offset = 0;
    /** Stored value (Store only). */
    Word value = 0;
};

/** One transaction of a litmus thread. */
struct LitmusTx
{
    std::vector<LitmusOp> ops;
    /**
     * false = the transaction never reaches Tx_end ("tx abort"):
     * litmusTraces() leaves it open at the end of the thread's trace,
     * modeling a crash arriving mid-transaction. Only legal for the
     * last transaction of a thread.
     */
    bool commit = true;
};

/** One thread (= one core) of a litmus program. */
struct LitmusThread
{
    std::vector<LitmusTx> txs;
};

/** A complete declarative multi-core transaction program. */
struct LitmusProgram
{
    std::string name = "litmus";
    std::vector<LitmusThread> threads;

    /** Total transactions across all threads. */
    std::size_t txCount() const;
    /** Total load+store operations across all threads. */
    std::size_t opCount() const;
};

/** A parsed litmus file: the program plus free-form metadata lines. */
struct LitmusFile
{
    LitmusProgram program;
    /** Header `<key> <value>` lines in file order (fuzz-layer keys). */
    std::vector<std::pair<std::string, std::string>> meta;
};

/**
 * Reject malformed programs via fatal(): no threads, >255 threads,
 * unaligned or out-of-arena offsets, or `tx abort` before the last
 * transaction of its thread.
 */
void validateLitmus(const LitmusProgram &program);

/** Serialize to canonical "litmus v1" text (stable, golden-testable). */
std::string serializeLitmus(const LitmusProgram &program,
                            const std::vector<std::pair<std::string,
                                                        std::string>>
                                &meta = {});

/** Parse "litmus v1" text; fatal() with line provenance on errors. */
LitmusFile parseLitmus(const std::string &text);

/**
 * Parse a litmus number: unsigned decimal without a leading zero, or
 * `0x` hexadecimal. No sign, no octal, nothing after the digits.
 * @return nullopt if @p text is not such a number or overflows.
 */
std::optional<std::uint64_t> parseLitmusNumber(std::string_view text);

/**
 * Deterministic pre-transaction value of the word at @p offset: the
 * setup phase writes it for every word a program touches, so every
 * store has a well-defined old value distinct from fuzzed new values.
 */
constexpr Word
litmusInitialValue(Addr offset)
{
    return 0xA5A5'0000'0000'0000ULL + offset;
}

/**
 * Compile @p program straight into replayable traces (setup image +
 * per-thread op streams), honouring `tx abort`. finalMemory reflects
 * the functional application of every store, including aborted
 * transactions — the persistency checker keeps its own committed-image
 * oracle, so fuzz harnesses must not compare media against it.
 */
WorkloadTraces litmusTraces(const LitmusProgram &program);

/**
 * Workload adapter: one transaction() call replays the thread's next
 * litmus transaction (no-op once exhausted, yielding an empty
 * transaction — itself a useful adversarial shape). The thread index
 * is bound in setup() from the heap's arena base.
 */
class LitmusWorkload : public Workload
{
  public:
    explicit LitmusWorkload(LitmusProgram program);

    const char *name() const override { return "Litmus"; }
    void setup(MemClient &mem, PmHeap &heap, Rng &rng) override;
    void transaction(MemClient &mem, PmHeap &heap, Rng &rng) override;

  private:
    const LitmusThread *boundThread() const;

    LitmusProgram _program;
    unsigned _thread = 0;
    bool _bound = false;
    std::size_t _cursor = 0; //!< next transaction to replay
};

} // namespace silo::workload

#endif // SILO_WORKLOAD_LITMUS_HH
