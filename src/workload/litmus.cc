#include "workload/litmus.hh"

#include <charconv>
#include <map>
#include <memory>
#include <sstream>

#include "sim/address_map.hh"
#include "sim/logging.hh"
#include "workload/func_mem.hh"
#include "workload/trace_recorder.hh"

namespace silo::workload
{

std::size_t
LitmusProgram::txCount() const
{
    std::size_t n = 0;
    for (const LitmusThread &t : threads)
        n += t.txs.size();
    return n;
}

std::size_t
LitmusProgram::opCount() const
{
    std::size_t n = 0;
    for (const LitmusThread &t : threads)
        for (const LitmusTx &tx : t.txs)
            n += tx.ops.size();
    return n;
}

void
validateLitmus(const LitmusProgram &program)
{
    if (program.threads.empty())
        fatal("litmus program has no threads");
    if (program.threads.size() > 255)
        fatal("litmus program exceeds 255 threads");
    for (std::size_t t = 0; t < program.threads.size(); ++t) {
        const LitmusThread &thread = program.threads[t];
        for (std::size_t i = 0; i < thread.txs.size(); ++i) {
            const LitmusTx &tx = thread.txs[i];
            if (!tx.commit && i + 1 != thread.txs.size())
                fatal("litmus thread " + std::to_string(t) +
                      ": `tx abort` must be the thread's last "
                      "transaction");
            for (const LitmusOp &op : tx.ops) {
                if (op.offset % wordBytes != 0)
                    fatal("litmus thread " + std::to_string(t) +
                          ": offset 0x" +
                          [&] {
                              std::ostringstream h;
                              h << std::hex << op.offset;
                              return h.str();
                          }() +
                          " is not word aligned");
                if (op.offset >= addr_map::dataArenaBytes)
                    fatal("litmus thread " + std::to_string(t) +
                          ": offset outside the per-thread data arena");
            }
        }
    }
}

std::string
serializeLitmus(
    const LitmusProgram &program,
    const std::vector<std::pair<std::string, std::string>> &meta)
{
    std::ostringstream os;
    os << "litmus v1\n";
    if (!program.name.empty())
        os << "name " << program.name << "\n";
    for (const auto &[key, value] : meta)
        os << key << " " << value << "\n";
    for (std::size_t t = 0; t < program.threads.size(); ++t) {
        os << "thread " << t << "\n";
        for (const LitmusTx &tx : program.threads[t].txs) {
            os << (tx.commit ? "tx" : "tx abort") << "\n";
            for (const LitmusOp &op : tx.ops) {
                if (op.kind == LitmusOp::Kind::Store) {
                    os << "store 0x" << std::hex << op.offset << std::dec
                       << " " << op.value << "\n";
                } else {
                    os << "load 0x" << std::hex << op.offset << std::dec
                       << "\n";
                }
            }
            os << "end\n";
        }
    }
    return os.str();
}

namespace
{

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok) {
        if (tok[0] == '#')
            break;
        tokens.push_back(tok);
    }
    return tokens;
}

std::uint64_t
parseNumber(const std::string &tok, unsigned line_no)
{
    std::optional<std::uint64_t> value = parseLitmusNumber(tok);
    if (!value)
        fatal("litmus line " + std::to_string(line_no) + ": \"" + tok +
              "\" is not a number");
    return *value;
}

[[noreturn]] void
parseError(unsigned line_no, const std::string &what)
{
    fatal("litmus line " + std::to_string(line_no) + ": " + what);
}

} // namespace

std::optional<std::uint64_t>
parseLitmusNumber(std::string_view text)
{
    int base = 10;
    if (text.size() > 2 && text.substr(0, 2) == "0x") {
        text.remove_prefix(2);
        base = 16;
    } else if (text.size() > 1 && text[0] == '0') {
        return std::nullopt; // elsewhere a leading zero means octal
    }
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
    if (text.empty() || ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

LitmusFile
parseLitmus(const std::string &text)
{
    LitmusFile out;
    out.program.name.clear();
    std::istringstream is(text);
    std::string line;
    unsigned line_no = 0;
    bool saw_header = false;
    bool in_threads = false;
    LitmusTx *open_tx = nullptr;

    while (std::getline(is, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::vector<std::string> tok = tokenize(line);
        if (tok.empty())
            continue;
        if (!saw_header) {
            if (tok.size() != 2 || tok[0] != "litmus" || tok[1] != "v1")
                parseError(line_no, "expected `litmus v1` header");
            saw_header = true;
            continue;
        }
        const std::string &kw = tok[0];
        if (kw == "thread") {
            if (open_tx)
                parseError(line_no, "`thread` inside an open tx");
            if (tok.size() != 2)
                parseError(line_no, "expected `thread <index>`");
            std::uint64_t index = parseNumber(tok[1], line_no);
            if (index != out.program.threads.size())
                parseError(line_no,
                           "thread indices must be dense and in order");
            out.program.threads.emplace_back();
            in_threads = true;
        } else if (kw == "tx") {
            if (!in_threads)
                parseError(line_no, "`tx` before any `thread`");
            if (open_tx)
                parseError(line_no, "`tx` inside an open tx");
            if (tok.size() > 2 || (tok.size() == 2 && tok[1] != "abort"))
                parseError(line_no, "expected `tx` or `tx abort`");
            out.program.threads.back().txs.emplace_back();
            open_tx = &out.program.threads.back().txs.back();
            open_tx->commit = tok.size() == 1;
        } else if (kw == "store") {
            if (!open_tx)
                parseError(line_no, "`store` outside a tx");
            if (tok.size() != 3)
                parseError(line_no, "expected `store <offset> <value>`");
            open_tx->ops.push_back({LitmusOp::Kind::Store,
                                    parseNumber(tok[1], line_no),
                                    parseNumber(tok[2], line_no)});
        } else if (kw == "load") {
            if (!open_tx)
                parseError(line_no, "`load` outside a tx");
            if (tok.size() != 2)
                parseError(line_no, "expected `load <offset>`");
            open_tx->ops.push_back(
                {LitmusOp::Kind::Load, parseNumber(tok[1], line_no), 0});
        } else if (kw == "end") {
            if (!open_tx)
                parseError(line_no, "`end` without an open tx");
            open_tx = nullptr;
        } else if (kw == "name") {
            if (in_threads)
                parseError(line_no, "`name` after the first `thread`");
            if (tok.size() != 2)
                parseError(line_no, "expected `name <token>`");
            out.program.name = tok[1];
        } else {
            // Free-form metadata between the header and the threads;
            // the fuzz layer interprets scheme/crash/expect/... keys.
            if (in_threads)
                parseError(line_no, "unknown directive `" + kw + "`");
            std::string value;
            for (std::size_t i = 1; i < tok.size(); ++i)
                value += (i > 1 ? " " : "") + tok[i];
            out.meta.emplace_back(kw, value);
        }
    }
    if (!saw_header)
        fatal("litmus file has no `litmus v1` header");
    if (open_tx)
        fatal("litmus file ends inside an open tx (missing `end`)");
    if (out.program.name.empty())
        out.program.name = "litmus";
    validateLitmus(out.program);
    return out;
}

// --- LitmusWorkload -----------------------------------------------------

LitmusWorkload::LitmusWorkload(LitmusProgram program)
    : _program(std::move(program))
{
    validateLitmus(_program);
}

const LitmusThread *
LitmusWorkload::boundThread() const
{
    if (!_bound || _thread >= _program.threads.size())
        return nullptr;
    return &_program.threads[_thread];
}

void
LitmusWorkload::setup(MemClient &mem, PmHeap &heap, Rng &rng)
{
    (void)rng;
    _thread = addr_map::dataArenaOwner(heap.base());
    _bound = true;
    _cursor = 0;
    const LitmusThread *thread = boundThread();
    if (!thread)
        return; // more cores than program threads: idle thread
    // Give every word the program touches a deterministic initial
    // value, so each store's old value (and the crash oracle's initial
    // image) is well defined. std::map orders the setup stores.
    std::map<Addr, Word> initial;
    for (const LitmusTx &tx : thread->txs)
        for (const LitmusOp &op : tx.ops)
            initial[op.offset] = litmusInitialValue(op.offset);
    for (const auto &[offset, value] : initial)
        mem.store(heap.base() + offset, value);
}

void
LitmusWorkload::transaction(MemClient &mem, PmHeap &heap, Rng &rng)
{
    (void)rng;
    const LitmusThread *thread = boundThread();
    if (!thread || _cursor >= thread->txs.size())
        return; // exhausted: an empty transaction
    const LitmusTx &tx = thread->txs[_cursor++];
    for (const LitmusOp &op : tx.ops) {
        if (op.kind == LitmusOp::Kind::Store)
            mem.store(heap.base() + op.offset, op.value);
        else
            mem.load(heap.base() + op.offset);
    }
}

// --- Direct compilation -------------------------------------------------

WorkloadTraces
litmusTraces(const LitmusProgram &program)
{
    validateLitmus(program);
    WorkloadTraces out;
    out.threads.resize(program.threads.size());

    FuncMem mem;
    std::vector<std::unique_ptr<LitmusWorkload>> workloads;
    std::vector<Rng> rngs;
    std::vector<PmHeap> heaps;
    std::vector<std::unique_ptr<TraceRecorder>> recorders;

    for (unsigned t = 0; t < program.threads.size(); ++t) {
        workloads.push_back(
            std::make_unique<LitmusWorkload>(program));
        rngs.emplace_back(t);
        heaps.push_back(PmHeap::forThread(t));
        recorders.push_back(
            std::make_unique<TraceRecorder>(mem, out.threads[t]));
        workloads[t]->setup(*recorders[t], heaps[t], rngs[t]);
    }

    out.initialMemory = mem;

    for (unsigned t = 0; t < program.threads.size(); ++t) {
        recorders[t]->setRecording(true);
        const LitmusThread &thread = program.threads[t];
        for (const LitmusTx &tx : thread.txs) {
            recorders[t]->txBegin();
            workloads[t]->transaction(*recorders[t], heaps[t], rngs[t]);
            if (!tx.commit)
                break; // `tx abort`: the trace ends inside the tx
            recorders[t]->txEnd();
        }
        recorders[t]->setRecording(false);
    }

    out.finalMemory = mem;
    return out;
}

} // namespace silo::workload
