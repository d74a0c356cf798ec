#include "log/wal_recovery.hh"

#include <algorithm>
#include <set>

namespace silo::log
{

std::vector<std::pair<Addr, LogRecord>>
orderedLiveRecords(const LogRegionStore &logs, unsigned tid)
{
    auto records = logs.liveRecords(tid);
    // Write order is LSN order (the LSN is the original append
    // address; unstamped records keep their address). Stable so
    // same-LSN duplicates keep address order before dedup.
    std::stable_sort(records.begin(), records.end(),
                     [](const auto &a, const auto &b) {
                         std::uint64_t la =
                             a.second.lsn ? a.second.lsn : a.first;
                         std::uint64_t lb =
                             b.second.lsn ? b.second.lsn : b.first;
                         return la < lb;
                     });
    std::vector<std::pair<Addr, LogRecord>> out;
    out.reserve(records.size());
    std::uint64_t last_lsn = 0;
    for (auto &entry : records) {
        if (entry.second.kind == LogRecord::Kind::Checkpoint)
            continue;
        std::uint64_t lsn = entry.second.lsn;
        // A crash mid-migration leaves the original and its copy, both
        // durable with the same LSN: replay exactly one of them.
        if (lsn != 0 && lsn == last_lsn)
            continue;
        last_lsn = lsn;
        out.push_back(std::move(entry));
    }
    return out;
}

void
walRecover(LogRegionStore &logs, unsigned threads, WordStore &media)
{
    using Kind = LogRecord::Kind;
    for (unsigned t = 0; t < threads; ++t) {
        auto records = orderedLiveRecords(logs, t);

        // Pass 1: the committed transactions of this thread, named by
        // a commit marker or an ID tuple.
        std::set<std::uint16_t> committed;
        for (const auto &[addr, rec] : records) {
            if (rec.kind == Kind::Commit || rec.kind == Kind::IdTuple)
                committed.insert(rec.txid);
        }

        // Pass 2: redo committed transactions in log (write) order.
        for (const auto &[addr, rec] : records) {
            if ((rec.kind == Kind::UndoRedo || rec.kind == Kind::Redo) &&
                committed.count(rec.txid)) {
                media.store(rec.dataAddr, rec.newData);
            }
        }

        // Pass 3: undo uncommitted transactions in reverse order so a
        // word's oldest old-value lands last.
        for (auto it = records.rbegin(); it != records.rend(); ++it) {
            const auto &rec = it->second;
            if ((rec.kind == Kind::UndoRedo || rec.kind == Kind::Undo) &&
                !committed.count(rec.txid)) {
                media.store(rec.dataAddr, rec.oldData);
            }
        }

        logs.truncate(t);
    }
}

} // namespace silo::log
