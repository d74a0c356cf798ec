#include "log/wal_recovery.hh"

#include <algorithm>
#include <bitset>

namespace silo::log
{

namespace
{

using Kind = LogRecord::Kind;

/**
 * One thread's live records in write order, walked in place. A record
 * whose LSN is its address was appended there, so the store's address
 * order is already their LSN order; the rest are the cleaner's
 * migrated copies (segmented mode only). Those are the only records
 * sorted, by (LSN, address) — the order a stable sort by LSN of the
 * address-ordered log gives — and merged in, an in-place record
 * winning an LSN tie. Checkpoint markers are skipped, and of each run
 * of equal LSNs (both copies of a record whose migration a crash cut
 * short) only the first is visited.
 */
class WriteOrder
{
  public:
    WriteOrder(const LogRegionStore &logs, unsigned tid)
        : _logs(logs), _tid(tid)
    {
        logs.forEachLive(tid, [this](Addr addr, const LogRecord &rec) {
            if (rec.lsn != addr)
                _moved.push_back(Moved{addr, &rec});
        });
        std::stable_sort(_moved.begin(), _moved.end(),
                         [](const Moved &a, const Moved &b) {
                             return a.rec->lsn < b.rec->lsn;
                         });
    }

    /** Visit the records in write order: fn(addr, record). */
    template <typename Fn>
    void
    forward(Fn &&fn) const
    {
        std::uint64_t last_lsn = 0;
        auto visit = [&](Addr addr, const LogRecord &rec) {
            if (rec.kind == Kind::Checkpoint || rec.lsn == last_lsn)
                return;
            last_lsn = rec.lsn;
            fn(addr, rec);
        };
        auto m = _moved.begin();
        _logs.forEachLive(_tid, [&](Addr addr, const LogRecord &rec) {
            if (rec.lsn != addr)
                return;
            for (; m != _moved.end() && before(*m, addr); ++m)
                visit(m->addr, *m->rec);
            visit(addr, rec);
        });
        for (; m != _moved.end(); ++m)
            visit(m->addr, *m->rec);
    }

    /** Visit the same records as forward(), in reverse. */
    template <typename Fn>
    void
    backward(Fn &&fn) const
    {
        // forward() keeps the first record of an equal-LSN run, which
        // this walk meets last: hold each record back until the next
        // one shows whether it starts its run.
        const LogRecord *held = nullptr;
        Addr held_addr = 0;
        auto visit = [&](Addr addr, const LogRecord &rec) {
            if (rec.kind == Kind::Checkpoint)
                return;
            if (held && held->lsn != rec.lsn)
                fn(held_addr, *held);
            held = &rec;
            held_addr = addr;
        };
        auto m = _moved.rbegin();
        _logs.forEachLiveBackward(
            _tid, [&](Addr addr, const LogRecord &rec) {
                if (rec.lsn != addr)
                    return;
                for (; m != _moved.rend() && !before(*m, addr); ++m)
                    visit(m->addr, *m->rec);
                visit(addr, rec);
            });
        for (; m != _moved.rend(); ++m)
            visit(m->addr, *m->rec);
        if (held)
            fn(held_addr, *held);
    }

  private:
    /** A migrated copy: its LSN is not its address. */
    struct Moved
    {
        Addr addr;
        const LogRecord *rec;
    };

    /** Does @p m precede the in-place record at @p addr (LSN addr)? */
    static bool
    before(const Moved &m, Addr addr)
    {
        return m.rec->lsn < addr || (m.rec->lsn == addr && m.addr < addr);
    }

    const LogRegionStore &_logs;
    unsigned _tid;
    std::vector<Moved> _moved;
};

} // namespace

std::vector<std::pair<Addr, LogRecord>>
orderedLiveRecords(const LogRegionStore &logs, unsigned tid)
{
    std::vector<std::pair<Addr, LogRecord>> out;
    WriteOrder(logs, tid).forward([&](Addr addr, const LogRecord &rec) {
        out.emplace_back(addr, rec);
    });
    return out;
}

void
walRecover(LogRegionStore &logs, unsigned threads, WordStore &media)
{
    for (unsigned t = 0; t < threads; ++t) {
        WriteOrder order(logs, t);

        // The committed transactions of this thread, named by a commit
        // marker or an ID tuple.
        std::bitset<1u << 16> committed;
        order.forward([&](Addr, const LogRecord &rec) {
            if (rec.kind == Kind::Commit || rec.kind == Kind::IdTuple)
                committed.set(rec.txid);
        });

        // Redo committed transactions in log (write) order.
        order.forward([&](Addr, const LogRecord &rec) {
            if ((rec.kind == Kind::UndoRedo || rec.kind == Kind::Redo) &&
                committed.test(rec.txid)) {
                media.store(rec.dataAddr, rec.newData);
            }
        });

        // Undo uncommitted transactions in reverse order so a word's
        // oldest old-value lands last.
        order.backward([&](Addr, const LogRecord &rec) {
            if ((rec.kind == Kind::UndoRedo || rec.kind == Kind::Undo) &&
                !committed.test(rec.txid)) {
                media.store(rec.dataAddr, rec.oldData);
            }
        });

        logs.truncate(t);
    }
}

} // namespace silo::log
