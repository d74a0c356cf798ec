/**
 * @file
 * Reference test for walRecover(): random logs are recovered by the
 * in-place walk and by the algorithm it replaced, kept below as
 * referenceRecover() (a stable sort by LSN of each thread's live
 * records, duplicate-LSN and checkpoint filtering, a std::set of
 * committed txids and three passes), and the two media images must be
 * equal. The logs hold committed and uncommitted transactions (commit
 * markers and ID tuples), checkpoint markers, records persisted out of
 * order, and, with segmentation on, migrated copies that keep their
 * LSN — some with the original still live, some with a different
 * payload — plus drops and segment reclaims. Txids are distinct within
 * a thread there; one hand-built log repeats a txid, as a run past the
 * 16-bit wrap does, and is checked against its expected image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "log/wal_recovery.hh"
#include "sim/address_map.hh"
#include "sim/log_region.hh"
#include "sim/rng.hh"
#include "sim/word_store.hh"

namespace silo::log
{
namespace
{

using Records = std::vector<std::pair<Addr, LogRecord>>;
using Kind = LogRecord::Kind;

/** Thread @p tid 's records in write order, as recovery used to see them. */
Records
referenceOrder(const LogRegionStore &logs, unsigned tid)
{
    auto records = logs.liveRecords(tid);
    std::stable_sort(records.begin(), records.end(),
                     [](const auto &a, const auto &b) {
                         std::uint64_t la =
                             a.second.lsn ? a.second.lsn : a.first;
                         std::uint64_t lb =
                             b.second.lsn ? b.second.lsn : b.first;
                         return la < lb;
                     });
    Records out;
    std::uint64_t last_lsn = 0;
    for (auto &entry : records) {
        if (entry.second.kind == Kind::Checkpoint)
            continue;
        std::uint64_t lsn = entry.second.lsn;
        if (lsn != 0 && lsn == last_lsn)
            continue;
        last_lsn = lsn;
        out.push_back(std::move(entry));
    }
    return out;
}

/** walRecover() as it was before the in-place walk. */
void
referenceRecover(LogRegionStore &logs, unsigned threads, WordStore &media)
{
    for (unsigned t = 0; t < threads; ++t) {
        auto records = referenceOrder(logs, t);
        std::set<std::uint16_t> committed;
        for (const auto &[addr, rec] : records) {
            if (rec.kind == Kind::Commit || rec.kind == Kind::IdTuple)
                committed.insert(rec.txid);
        }
        for (const auto &[addr, rec] : records) {
            if ((rec.kind == Kind::UndoRedo || rec.kind == Kind::Redo) &&
                committed.count(rec.txid)) {
                media.store(rec.dataAddr, rec.newData);
            }
        }
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

bool
sameOrder(const Records &a, const Records &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto &x, const auto &y) {
                          return x.first == y.first &&
                                 x.second.lsn == y.second.lsn &&
                                 x.second.kind == y.second.kind &&
                                 x.second.txid == y.second.txid &&
                                 x.second.newData == y.second.newData;
                      });
}

/** Words the generated transactions write: shared by every thread. */
constexpr unsigned poolWords = 24;

Addr
poolAddr(unsigned i)
{
    return addr_map::dataRegionBase + Addr(i) * wordBytes;
}

/** Builds one random multi-thread log. */
class LogBuilder
{
  public:
    LogBuilder(std::uint64_t seed, unsigned threads,
               std::uint64_t seg_bytes)
        : logs(threads), _rng(seed), _threads(threads),
          _segmented(seg_bytes != 0)
    {
        logs.setSegmentation(seg_bytes);
    }

    void
    build(unsigned tx_per_thread)
    {
        for (unsigned t = 0; t < _threads; ++t) {
            for (unsigned tx = 1; tx <= tx_per_thread; ++tx)
                transaction(t, std::uint16_t(tx * 7));
            flush();
        }
    }

    LogRegionStore logs;

  private:
    LogRecord
    dataRecord(unsigned t, std::uint16_t txid)
    {
        LogRecord rec;
        static constexpr Kind kinds[] = {Kind::UndoRedo, Kind::UndoRedo,
                                         Kind::Undo, Kind::Redo};
        rec.kind = kinds[_rng.below(4)];
        rec.tid = std::uint8_t(t);
        rec.txid = txid;
        rec.dataAddr = poolAddr(unsigned(_rng.below(poolWords)));
        rec.oldData = _rng.below(1000);
        rec.newData = 1000 + _rng.below(1000);
        return rec;
    }

    /** Allocate @p rec now; persist it now or a little later. */
    void
    append(unsigned t, const LogRecord &rec)
    {
        Addr addr = logs.allocate(t, rec.sizeBytes());
        _waiting.emplace_back(addr, rec);
        while (_waiting.size() > 3 || (!_waiting.empty() &&
                                       _rng.chance(0.6))) {
            std::size_t i = _rng.chance(0.8) ? 0
                                             : _rng.below(_waiting.size());
            logs.persist(_waiting[i].first, _waiting[i].second);
            _waiting.erase(_waiting.begin() + std::ptrdiff_t(i));
        }
    }

    /** Persist every record still waiting. */
    void
    flush()
    {
        for (const auto &[addr, rec] : _waiting)
            logs.persist(addr, rec);
        _waiting.clear();
    }

    void
    transaction(unsigned t, std::uint16_t txid)
    {
        unsigned n = 1 + unsigned(_rng.below(5));
        for (unsigned i = 0; i < n; ++i) {
            append(t, dataRecord(t, txid));
            if (_rng.chance(0.05)) {
                LogRecord marker;
                marker.kind = Kind::Checkpoint;
                marker.tid = std::uint8_t(t);
                append(t, marker);
            }
            if (_segmented && _rng.chance(0.15))
                lifecycleStep(t);
        }
        if (_rng.chance(0.65)) {
            LogRecord marker;
            marker.kind = _rng.chance(0.7) ? Kind::Commit : Kind::IdTuple;
            marker.tid = std::uint8_t(t);
            marker.txid = txid;
            append(t, marker);
        }
    }

    /** A cleaner or checkpoint move: migrate, drop or reclaim. */
    void
    lifecycleStep(unsigned t)
    {
        Records live = logs.liveRecords(t);
        if (live.empty())
            return;
        const auto &[addr, rec] = live[_rng.below(live.size())];
        switch (_rng.below(6)) {
          case 0:
          case 1:
          case 2: {
            // Migrate: the copy keeps the LSN; the original is dropped
            // only sometimes, as a crash mid-migration leaves both. A
            // copy whose payload differs pins down which copy
            // recovery replays.
            LogRecord copy = rec;
            if (_rng.chance(0.2)) {
                copy.dataAddr = poolAddr(unsigned(_rng.below(poolWords)));
                copy.oldData += 1;
                copy.newData += 1;
            }
            Addr to = logs.allocate(t, copy.sizeBytes());
            logs.persist(to, copy);
            if (_rng.chance(0.5))
                logs.dropRecord(addr, LogDropReason::Migrated);
            break;
          }
          case 3:
            logs.dropRecord(addr, LogDropReason::Checkpointed);
            break;
          case 4:
            if (logs.headSegment(t) != logs.activeSegment(t))
                logs.reclaimSegment(t, logs.headSegment(t));
            break;
          default:
            break;
        }
    }

    Rng _rng;
    unsigned _threads;
    bool _segmented;
    Records _waiting;
};

void
expectSameRecovery(std::uint64_t seed, unsigned threads,
                   std::uint64_t seg_bytes, unsigned tx_per_thread)
{
    LogBuilder b(seed, threads, seg_bytes);
    b.build(tx_per_thread);
    LogRegionStore reference = b.logs;
    for (unsigned t = 0; t < threads; ++t) {
        ASSERT_TRUE(sameOrder(orderedLiveRecords(b.logs, t),
                              referenceOrder(reference, t)))
            << "thread " << t;
    }

    WordStore media;
    for (unsigned i = 0; i < poolWords; ++i)
        media.store(poolAddr(i), 5000 + i);
    WordStore expected = media;
    walRecover(b.logs, threads, media);
    referenceRecover(reference, threads, expected);
    ASSERT_EQ(media.words(), expected.words());
    for (unsigned t = 0; t < threads; ++t) {
        EXPECT_TRUE(b.logs.liveRecords(t).empty());
        EXPECT_EQ(b.logs.head(t), reference.head(t));
    }
}

TEST(WalRecovery, MatchesTheSortingReferenceWithoutSegmentation)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSameRecovery(seed, 1 + unsigned(seed % 4), 0, 40);
        if (HasFatalFailure())
            return;
    }
}

TEST(WalRecovery, MatchesTheSortingReferenceWithMigratedCopies)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::uint64_t seg_bytes = seed % 2 ? 256 : 1024;
        expectSameRecovery(seed, 1 + unsigned(seed % 3), seg_bytes, 40);
        if (HasFatalFailure())
            return;
    }
}

TEST(WalRecovery, MarkerCommitsOnlyRecordsBeforeIt)
{
    // Past the 16-bit wrap a txid comes round again while its earlier
    // instance's marker is still in the log: that marker must not
    // commit the new instance's records. Thread 0 writes undo+redo
    // records and commit markers (txid 5 commits, txid 6 commits, txid
    // 5 is open at the crash); thread 1 writes Silo's redo records, an
    // ID tuple and an undo record (txid 9 commits, then is open).
    LogRegionStore logs(2);
    auto append = [&](unsigned t, Kind kind, std::uint16_t txid,
                      unsigned word, Word old_data, Word new_data) {
        LogRecord rec;
        rec.kind = kind;
        rec.tid = std::uint8_t(t);
        rec.txid = txid;
        rec.dataAddr = poolAddr(word);
        rec.oldData = old_data;
        rec.newData = new_data;
        logs.persist(logs.allocate(t, rec.sizeBytes()), rec);
    };
    append(0, Kind::UndoRedo, 5, 0, 1, 2);
    append(0, Kind::UndoRedo, 5, 1, 10, 11);
    append(0, Kind::Commit, 5, 0, 0, 0);
    append(0, Kind::UndoRedo, 6, 2, 20, 21);
    append(0, Kind::Commit, 6, 0, 0, 0);
    append(0, Kind::UndoRedo, 5, 0, 2, 3);
    append(0, Kind::UndoRedo, 5, 3, 30, 31);
    append(1, Kind::Redo, 9, 4, 0, 41);
    append(1, Kind::IdTuple, 9, 0, 0, 0);
    append(1, Kind::Undo, 9, 5, 50, 0);

    // The open instances' new values reached the media; the committed
    // words of txid 5's first instance and of txid 9 did not.
    WordStore media;
    for (auto [word, value] : {std::pair<unsigned, Word>{0, 3},
                               {1, 10}, {2, 21}, {3, 31}, {4, 40},
                               {5, 51}})
        media.store(poolAddr(word), value);
    walRecover(logs, 2, media);

    const Word expected[] = {2, 11, 21, 30, 41, 50};
    for (unsigned word = 0; word < std::size(expected); ++word)
        EXPECT_EQ(media.load(poolAddr(word)), expected[word])
            << "word " << word;
}

TEST(WalRecovery, MatchesTheSortingReferenceAcrossChunks)
{
    // Thousands of records per thread span several storage chunks.
    expectSameRecovery(7, 2, 0, 1200);
    expectSameRecovery(8, 2, 8192, 1200);
}

} // namespace
} // namespace silo::log
