#include "log/wal_recovery.hh"

#include <algorithm>
#include <bitset>
#include <deque>

namespace silo::log
{

namespace
{

using Kind = LogRecord::Kind;

/**
 * One thread's live records in reverse write order, walked in place. A
 * record whose LSN is its address was appended there, so the store's
 * address order is already their LSN order; the rest are the cleaner's
 * migrated copies (segmented mode only). Those are the only records
 * sorted, by (LSN, address) — the order a stable sort by LSN of the
 * address-ordered log gives — and merged in, an in-place record
 * winning an LSN tie. Checkpoint markers are skipped, and of each run
 * of equal LSNs (both copies of a record whose migration a crash cut
 * short) only the first in write order is visited.
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

    /** Visit the records in reverse write order: fn(addr, record). */
    template <typename Fn>
    void
    backward(Fn &&fn) const
    {
        // The first record of an equal-LSN run is the one this walk
        // meets last: hold each record back until the next one shows
        // whether it starts its run.
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
    WriteOrder(logs, tid).backward([&](Addr addr, const LogRecord &rec) {
        out.emplace_back(addr, rec);
    });
    std::reverse(out.begin(), out.end());
    return out;
}

void
walRecover(LogRegionStore &logs, unsigned threads, WordStore &media)
{
    // A deque: a long log's redo list grows in small blocks, where a
    // vector doubling through ~330K pointers (long_horizon) raised the
    // peak RSS by 4 MiB.
    std::deque<const LogRecord *> redo;
    std::vector<const LogRecord *> undo;
    for (unsigned t = 0; t < threads; ++t) {
        // A commit marker or an ID tuple commits the records of its
        // txid written since that txid's previous marker: a record is
        // committed iff a marker of its txid follows it. One backward
        // walk sorts the records; `marked` holds the txids whose marker
        // it has passed.
        std::bitset<1u << 16> marked;
        redo.clear();
        undo.clear();
        WriteOrder(logs, t).backward([&](Addr, const LogRecord &rec) {
            if (rec.kind == Kind::Commit || rec.kind == Kind::IdTuple) {
                marked.set(rec.txid);
            } else if (marked.test(rec.txid)) {
                if (rec.kind != Kind::Undo)
                    redo.push_back(&rec);
            } else if (rec.kind != Kind::Redo) {
                undo.push_back(&rec);
            }
        });

        // Redo committed records in log (write) order, then revoke the
        // uncommitted ones in reverse order so a word's oldest old
        // value lands last.
        for (auto it = redo.rbegin(); it != redo.rend(); ++it)
            media.store((*it)->dataAddr, (*it)->newData);
        for (const LogRecord *rec : undo)
            media.store(rec->dataAddr, rec->oldData);

        logs.truncate(t);
    }
}

} // namespace silo::log
