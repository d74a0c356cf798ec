/**
 * @file
 * LogRegionStore tests, chiefly a differential one: the per-thread
 * append-ordered store must behave exactly like a std::map of each
 * thread's [head, tail), kept below as MapLogRegionStore. Seeded
 * random sequences of allocate, persist (in order, out of order, below
 * the head after a truncate, and again at an address that holds no
 * live record), truncate, dropRecord and reclaimSegment (which can move
 * a head past live records) run against both, with segmentation on and
 * off and 1-4 threads, long enough to cross storage chunks. After
 * every step the two agree on liveRecords, recordsInSegment,
 * liveRecordCount, hasRecord, head, tail and the PersistEventSink calls
 * they made.
 * Runs under ASan via the san_smoke_test wiring in
 * tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/address_map.hh"
#include "sim/log_region.hh"
#include "sim/rng.hh"

namespace silo::log
{
namespace
{

using Records = std::vector<std::pair<Addr, LogRecord>>;

/**
 * The reference: one std::map of every thread's [head, tail). A
 * record below its thread's head is reported persisted and dropped
 * (BelowHead), and not kept.
 */
class MapLogRegionStore
{
  public:
    explicit MapLogRegionStore(unsigned num_threads)
        : _tail(num_threads), _head(num_threads)
    {
        for (unsigned t = 0; t < num_threads; ++t) {
            _tail[t] = addr_map::logAreaBase(t);
            _head[t] = _tail[t];
        }
    }

    Addr
    allocate(unsigned tid, unsigned bytes)
    {
        Addr addr = _tail.at(tid);
        if (pmLineAlign(addr) != pmLineAlign(addr + bytes - 1))
            addr = pmLineAlign(addr) + pmBufferLineBytes;
        if (_segmentBytes != 0 &&
            segmentOf(tid, addr) != segmentOf(tid, addr + bytes - 1)) {
            addr = segmentBase(tid, segmentOf(tid, addr) + 1);
        }
        _tail[tid] = addr + bytes;
        return addr;
    }

    void
    persist(Addr addr, const LogRecord &record)
    {
        LogRecord stored = record;
        if (stored.lsn == 0)
            stored.lsn = addr;
        if (_sink)
            _sink->onLogPersist(addr, stored);
        if (addr >= _head.at(ownerOf(addr)))
            _records[addr] = stored;
        else if (_sink)
            _sink->onLogRecordDrop(addr, stored, LogDropReason::BelowHead);
    }

    void
    truncate(unsigned tid)
    {
        Addr head = _head.at(tid);
        Addr tail = _tail.at(tid);
        if (_sink)
            _sink->onLogTruncate(tid);
        _records.erase(_records.lower_bound(head),
                       _records.lower_bound(tail));
        _head[tid] = tail;
    }

    void setEventSink(PersistEventSink *sink) { _sink = sink; }

    Records
    liveRecords(unsigned tid) const
    {
        Records out;
        for (auto it = _records.lower_bound(_head.at(tid));
             it != _records.end() && it->first < _tail.at(tid); ++it) {
            out.push_back(*it);
        }
        return out;
    }

    std::size_t liveRecordCount() const { return _records.size(); }
    bool hasRecord(Addr addr) const { return _records.count(addr) != 0; }
    Addr tail(unsigned tid) const { return _tail.at(tid); }
    Addr head(unsigned tid) const { return _head.at(tid); }

    void setSegmentation(std::uint64_t bytes) { _segmentBytes = bytes; }

    std::uint64_t
    segmentOf(unsigned tid, Addr addr) const
    {
        return (addr - addr_map::logAreaBase(tid)) / _segmentBytes;
    }

    Addr
    segmentBase(unsigned tid, std::uint64_t seg) const
    {
        return addr_map::logAreaBase(tid) + seg * _segmentBytes;
    }

    Records
    recordsInSegment(unsigned tid, std::uint64_t seg) const
    {
        Records out;
        for (auto it = _records.lower_bound(segmentBase(tid, seg));
             it != _records.end() && it->first < segmentBase(tid, seg + 1);
             ++it) {
            out.push_back(*it);
        }
        return out;
    }

    bool
    dropRecord(Addr addr, LogDropReason reason)
    {
        auto it = _records.find(addr);
        if (it == _records.end())
            return false;
        if (_sink)
            _sink->onLogRecordDrop(addr, it->second, reason);
        _records.erase(it);
        return true;
    }

    void
    reclaimSegment(unsigned tid, std::uint64_t seg)
    {
        for (const auto &[addr, rec] : recordsInSegment(tid, seg))
            dropRecord(addr, LogDropReason::Reclaimed);
        Addr seg_end = segmentBase(tid, seg + 1);
        if (_head.at(tid) < seg_end) {
            while (true) {
                auto it = _records.lower_bound(_head[tid]);
                if (it == _records.end() || it->first >= seg_end)
                    break;
                dropRecord(it->first, LogDropReason::BelowHead);
            }
            _head[tid] = seg_end;
        }
        if (_tail.at(tid) < seg_end)
            _tail[tid] = seg_end;
    }

  private:
    static unsigned
    ownerOf(Addr addr)
    {
        return unsigned((addr - addr_map::logRegionBase) /
                        addr_map::logAreaBytes);
    }

    std::map<Addr, LogRecord> _records;
    std::vector<Addr> _tail;
    std::vector<Addr> _head;
    std::uint64_t _segmentBytes = 0;
    PersistEventSink *_sink = nullptr;
};

bool
same(const Records &a, const Records &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto &x, const auto &y) {
                          const LogRecord &r = x.second;
                          const LogRecord &q = y.second;
                          return x.first == y.first && r.kind == q.kind &&
                                 r.tid == q.tid && r.txid == q.txid &&
                                 r.flushBit == q.flushBit &&
                                 r.dataAddr == q.dataAddr &&
                                 r.oldData == q.oldData &&
                                 r.newData == q.newData && r.lsn == q.lsn;
                      });
}

std::string
show(const LogRecord &r)
{
    std::ostringstream ss;
    ss << int(r.kind) << '/' << int(r.tid) << '/' << r.txid << '/'
       << r.flushBit << '/' << std::hex << r.dataAddr << '/' << r.oldData
       << '/' << r.newData << '/' << r.lsn;
    return ss.str();
}

std::string
show(const Records &records)
{
    std::ostringstream ss;
    for (const auto &[addr, rec] : records)
        ss << std::hex << addr << '=' << show(rec) << ' ';
    return ss.str();
}

/** Records every log-region sink call as one line. */
class Recorder : public PersistEventSink
{
  public:
    std::vector<std::string> calls;

    void
    onLogPersist(Addr addr, const LogRecord &rec) override
    {
        calls.push_back("persist " + hex(addr) + ' ' + show(rec));
    }

    void
    onLogTruncate(unsigned tid) override
    {
        calls.push_back("truncate " + std::to_string(tid));
    }

    void
    onLogRecordDrop(Addr addr, const LogRecord &rec,
                    LogDropReason reason) override
    {
        calls.push_back("drop " + hex(addr) + ' ' + show(rec) + ' ' +
                        std::to_string(int(reason)));
    }

  private:
    static std::string
    hex(Addr a)
    {
        std::ostringstream ss;
        ss << std::hex << a;
        return ss.str();
    }
};

/** Relative weights of the operations a DiffRun draws. */
struct Mix
{
    unsigned allocate;
    unsigned persistOldest;
    unsigned persistOutOfOrder;
    unsigned persistAgain;
    unsigned truncate;
    unsigned drop;
    unsigned reclaim;   //!< segmented runs only
};

/** Every operation often: heads move all the time. */
constexpr Mix shortMix{30, 30, 12, 4, 4, 12, 8};
/** Mostly appends: thousands of records pile up across chunks. */
constexpr Mix longMix{40, 35, 10, 2, 0, 3, 1};

/** One seeded run of both stores through the same random operations. */
class DiffRun
{
  public:
    DiffRun(std::uint64_t seed, unsigned threads, std::uint64_t seg_bytes,
            Mix mix)
        : _rng(seed), _threads(threads), _segBytes(seg_bytes), _mix(mix),
          _store(threads), _ref(threads), _pending(threads),
          _known(threads)
    {
        _store.setSegmentation(seg_bytes);
        _ref.setSegmentation(seg_bytes);
        _store.setEventSink(&_storeCalls);
        _ref.setEventSink(&_refCalls);
    }

    /**
     * Run @p steps operations. After each, compare the sink calls, the
     * record count and the touched thread; every @p full_every steps
     * and at the end, every thread, segment and known address.
     */
    void
    run(unsigned steps, unsigned full_every)
    {
        for (unsigned step = 0; step < steps; ++step) {
            unsigned tid = unsigned(_rng.below(_threads));
            std::string op = stepOnce(tid);
            SCOPED_TRACE("step " + std::to_string(step) + ", thread " +
                         std::to_string(tid) + ": " + op);
            bool full = (step + 1) % full_every == 0 || step + 1 == steps;
            compareCalls();
            for (unsigned t = 0; t < _threads; ++t) {
                if (full || t == tid)
                    compareThread(t, full);
            }
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    /** Truncate every thread's log, comparing after each. */
    void
    truncateAll()
    {
        for (unsigned t = 0; t < _threads; ++t) {
            _store.truncate(t);
            _ref.truncate(t);
            compareCalls();
            compareThread(t, true);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

  private:
    /** An allocated record not yet persisted. */
    struct Pending
    {
        Addr addr;
        LogRecord rec;
    };

    LogRecord
    randomRecord(unsigned tid)
    {
        LogRecord rec;
        rec.kind = LogRecord::Kind(_rng.below(6));
        rec.tid = std::uint8_t(tid);
        rec.txid = std::uint16_t(_rng.below(40));
        rec.flushBit = _rng.chance(0.5);
        rec.dataAddr = addr_map::dataArenaBase(tid) + 8 * _rng.below(64);
        rec.oldData = _rng.next();
        rec.newData = _rng.next();
        return rec;
    }

    /** A fresh record, or a migrated copy of one (keeps its LSN). */
    LogRecord
    recordFor(unsigned tid)
    {
        const auto &known = _known[tid];
        if (known.empty() || !_rng.chance(0.2))
            return randomRecord(tid);
        Addr from = known[_rng.below(known.size())];
        LogRecord copy = _persisted.at(from);
        if (copy.lsn == 0)
            copy.lsn = from;
        return copy;
    }

    void
    persistBoth(Addr addr, const LogRecord &rec)
    {
        _store.persist(addr, rec);
        _ref.persist(addr, rec);
        if (_persisted.insert_or_assign(addr, rec).second)
            _known[rec.tid].push_back(addr);
    }

    std::string
    stepOnce(unsigned tid)
    {
        auto &pending = _pending[tid];
        auto &known = _known[tid];
        unsigned pick = unsigned(_rng.below(
            _mix.allocate + _mix.persistOldest + _mix.persistOutOfOrder +
            _mix.persistAgain + _mix.truncate + _mix.drop +
            (_segBytes ? _mix.reclaim : 0)));

        if (pick < _mix.allocate) {
            LogRecord rec = recordFor(tid);
            Addr addr = _store.allocate(tid, rec.sizeBytes());
            EXPECT_EQ(addr, _ref.allocate(tid, rec.sizeBytes()));
            pending.push_back(Pending{addr, rec});
            return "allocate";
        }
        pick -= _mix.allocate;
        if (pick < _mix.persistOldest) {
            if (pending.empty())
                return "idle";
            Pending p = pending.front();
            pending.erase(pending.begin());
            persistBoth(p.addr, p.rec);
            return "persist oldest";
        }
        pick -= _mix.persistOldest;
        if (pick < _mix.persistOutOfOrder) {
            if (pending.empty())
                return "idle";
            std::size_t i = _rng.below(pending.size());
            Pending p = pending[i];
            pending.erase(pending.begin() + std::ptrdiff_t(i));
            persistBoth(p.addr, p.rec);
            return "persist out of order";
        }
        pick -= _mix.persistOutOfOrder;
        if (pick < _mix.persistAgain) {
            if (known.empty())
                return "idle";
            Addr addr = known[_rng.below(known.size())];
            if (_store.hasRecord(addr))
                return "idle";   // persist() panics over a live record
            persistBoth(addr, recordFor(tid));
            return "persist again";
        }
        pick -= _mix.persistAgain;
        if (pick < _mix.truncate) {
            _store.truncate(tid);
            _ref.truncate(tid);
            return "truncate";
        }
        pick -= _mix.truncate;
        if (pick < _mix.drop) {
            Addr addr = randomAddress(tid);
            auto reason = LogDropReason(_rng.below(3));
            EXPECT_EQ(_store.dropRecord(addr, reason),
                      _ref.dropRecord(addr, reason));
            return "drop";
        }
        std::uint64_t active = _store.activeSegment(tid);
        std::uint64_t seg = _rng.chance(0.7) ? _store.headSegment(tid)
                                             : _rng.below(active + 1);
        _store.reclaimSegment(tid, seg);
        _ref.reclaimSegment(tid, seg);
        return "reclaim " + std::to_string(seg);
    }

    /** A persisted, pending, foreign or never-used address. */
    Addr
    randomAddress(unsigned tid)
    {
        const auto &known = _known[tid];
        const auto &pending = _pending[tid];
        switch (_rng.below(5)) {
          case 0:
            if (!pending.empty())
                return pending[_rng.below(pending.size())].addr;
            [[fallthrough]];
          case 1:
            return addr_map::dataArenaBase(tid);
          case 2:
            return _store.tail(tid) + 8;
          default:
            return known.empty() ? addr_map::logAreaBase(tid)
                                 : known[_rng.below(known.size())];
        }
    }

    void
    compareCalls()
    {
        ASSERT_EQ(_storeCalls.calls, _refCalls.calls);
        _storeCalls.calls.clear();
        _refCalls.calls.clear();
        ASSERT_EQ(_store.liveRecordCount(), _ref.liveRecordCount());
    }

    void
    compareSegment(unsigned t, std::uint64_t seg)
    {
        Records got = _store.recordsInSegment(t, seg);
        Records want = _ref.recordsInSegment(t, seg);
        ASSERT_TRUE(same(got, want))
            << "segment " << seg << "\n got " << show(got) << "\nwant "
            << show(want);
        ASSERT_EQ(_store.segmentEmpty(t, seg), want.empty());
    }

    void
    compareThread(unsigned t, bool full)
    {
        ASSERT_EQ(_store.head(t), _ref.head(t));
        ASSERT_EQ(_store.tail(t), _ref.tail(t));
        Records live = _store.liveRecords(t);
        Records want = _ref.liveRecords(t);
        ASSERT_TRUE(same(live, want))
            << "\n got " << show(live) << "\nwant " << show(want);
        Records backward;
        _store.forEachLiveBackward(t, [&](Addr addr, const LogRecord &rec) {
            backward.emplace_back(addr, rec);
        });
        ASSERT_TRUE(same(Records(live.rbegin(), live.rend()), backward));

        const auto &known = _known[t];
        std::size_t probes = full ? known.size() : std::min<std::size_t>(
                                                       known.size(), 8);
        for (std::size_t k = 0; k < probes; ++k) {
            Addr addr = full ? known[k] : known[_rng.below(known.size())];
            ASSERT_EQ(_store.hasRecord(addr), _ref.hasRecord(addr))
                << std::hex << addr;
        }
        ASSERT_FALSE(_store.hasRecord(addr_map::dataArenaBase(t)));
        ASSERT_FALSE(_store.hasRecord(_store.tail(t)));

        if (_segBytes == 0)
            return;
        std::uint64_t head = _store.headSegment(t);
        std::uint64_t active = _store.activeSegment(t);
        if (full) {
            for (std::uint64_t seg = 0; seg <= active + 1; ++seg)
                compareSegment(t, seg);
            return;
        }
        // Around the head and the tail, and one segment at random.
        for (std::uint64_t seg : {head - std::min<std::uint64_t>(head, 1),
                                  head, active, active + 1,
                                  std::uint64_t(_rng.below(active + 1))}) {
            compareSegment(t, seg);
        }
    }

    Rng _rng;
    unsigned _threads;
    std::uint64_t _segBytes;
    Mix _mix;
    LogRegionStore _store;
    MapLogRegionStore _ref;
    Recorder _storeCalls;
    Recorder _refCalls;
    std::vector<std::vector<Pending>> _pending;
    /** Every address persisted at least once, per thread. */
    std::vector<std::vector<Addr>> _known;
    /** The record last persisted at each address. */
    std::map<Addr, LogRecord> _persisted;
};

TEST(LogRegionStore, AllocatePadsAcrossPmLines)
{
    LogRegionStore logs(2);
    Addr first = logs.allocate(0, 26);
    // Fill up to near the 256B boundary.
    Addr prev = first;
    for (int i = 0; i < 20; ++i) {
        Addr a = logs.allocate(0, 26);
        EXPECT_GT(a, prev);
        // Never straddles a 256B line.
        EXPECT_EQ(pmLineAlign(a), pmLineAlign(a + 25));
        prev = a;
    }
}

TEST(LogRegionStore, TruncateDropsLiveRecords)
{
    LogRegionStore logs(1);
    LogRecord rec;
    for (int i = 0; i < 5; ++i) {
        Addr a = logs.allocate(0, rec.sizeBytes());
        logs.persist(a, rec);
    }
    EXPECT_EQ(logs.liveRecords(0).size(), 5u);
    logs.truncate(0);
    EXPECT_EQ(logs.liveRecords(0).size(), 0u);

    // New records after truncation are live again.
    Addr a = logs.allocate(0, rec.sizeBytes());
    logs.persist(a, rec);
    EXPECT_EQ(logs.liveRecords(0).size(), 1u);
}

TEST(LogRegionStore, RecordPersistedBelowTheHeadIsDurableButNotLive)
{
    LogRegionStore logs(1);
    Recorder sink;
    logs.setEventSink(&sink);
    LogRecord rec;
    Addr late = logs.allocate(0, rec.sizeBytes());
    Addr a = logs.allocate(0, rec.sizeBytes());
    logs.persist(a, rec);
    logs.truncate(0);
    sink.calls.clear();
    // Accepted after the truncate passed it (Silo's commit): durable,
    // so reported persisted, and dropped at once, as it lies below the
    // head. The store keeps [head, tail) only.
    logs.persist(late, rec);
    ASSERT_EQ(sink.calls.size(), 2u);
    EXPECT_EQ(sink.calls[0].rfind("persist ", 0), 0u) << sink.calls[0];
    EXPECT_EQ(sink.calls[1].rfind("drop ", 0), 0u) << sink.calls[1];
    EXPECT_EQ(sink.calls[1].back(),
              char('0' + int(LogDropReason::BelowHead)));
    EXPECT_FALSE(logs.hasRecord(late));
    EXPECT_FALSE(logs.hasRecord(a));
    EXPECT_EQ(logs.liveRecordCount(), 0u);
    EXPECT_TRUE(logs.liveRecords(0).empty());
    EXPECT_FALSE(logs.dropRecord(late, LogDropReason::Checkpointed));
}

TEST(LogRegionStore, ReclaimPastALiveRecordDropsItBelowTheHead)
{
    LogRegionStore logs(1);
    logs.setSegmentation(pmBufferLineBytes);
    Recorder sink;
    logs.setEventSink(&sink);
    LogRecord rec;
    Addr first = logs.allocate(0, rec.sizeBytes());
    logs.persist(first, rec);
    Addr second = first;
    while (logs.segmentOf(0, second) == 0)
        second = logs.allocate(0, rec.sizeBytes());
    logs.persist(second, rec);
    sink.calls.clear();
    // Reclaiming segment 1 moves the head past segment 0's record.
    logs.reclaimSegment(0, 1);
    ASSERT_EQ(sink.calls.size(), 2u);
    EXPECT_EQ(sink.calls[0].back(),
              char('0' + int(LogDropReason::Reclaimed)));
    EXPECT_EQ(sink.calls[1].back(),
              char('0' + int(LogDropReason::BelowHead)));
    EXPECT_EQ(logs.head(0), logs.segmentBase(0, 2));
    EXPECT_FALSE(logs.hasRecord(first));
    EXPECT_EQ(logs.liveRecordCount(), 0u);
}

TEST(LogRegionStore, PersistOverALiveRecordPanics)
{
    LogRegionStore logs(1);
    LogRecord rec;
    Addr a = logs.allocate(0, rec.sizeBytes());
    Addr b = logs.allocate(0, rec.sizeBytes());
    logs.persist(b, rec);
    logs.persist(a, rec);   // out of order: inserted before b
    EXPECT_THROW(logs.persist(a, rec), PanicError);
    EXPECT_THROW(logs.persist(b, rec), PanicError);
    EXPECT_EQ(logs.liveRecordCount(), 2u);
    // A dropped record's address holds no live record any more.
    EXPECT_TRUE(logs.dropRecord(a, LogDropReason::Checkpointed));
    EXPECT_NO_THROW(logs.persist(a, rec));
    EXPECT_EQ(logs.liveRecordCount(), 2u);
}

TEST(LogRegionStore, PersistAtAnUnallocatedAddressPanics)
{
    LogRegionStore logs(2);
    LogRecord rec;
    EXPECT_THROW(logs.persist(logs.tail(0), rec), PanicError);
    EXPECT_THROW(logs.persist(addr_map::dataArenaBase(0), rec),
                 PanicError);
    EXPECT_THROW(logs.persist(addr_map::logAreaBase(2), rec), PanicError);
}

/** (segment bytes, threads) */
class LogRegionStoreDiff
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{};

TEST_P(LogRegionStoreDiff, ShortRunsMatchTheMapStore)
{
    auto [seg_bytes, threads] = GetParam();
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        DiffRun(seed, threads, seg_bytes, shortMix).run(300, 1);
        if (HasFatalFailure())
            return;
    }
}

TEST(LogRegionStoreDiff, LongRunsAcrossChunksMatchTheMapStore)
{
    // About 1,800 records per thread, so inserts, drops, head moves
    // and a truncate cross the store's 1024-record chunks.
    for (auto [seg_bytes, threads] :
         {std::make_pair(std::uint64_t(0), 1u),
          std::make_pair(std::uint64_t(0), 2u),
          std::make_pair(std::uint64_t(2048), 1u),
          std::make_pair(std::uint64_t(8192), 3u)}) {
        SCOPED_TRACE(std::to_string(seg_bytes) + " B segments, " +
                     std::to_string(threads) + " threads");
        DiffRun run(100 + threads, threads, seg_bytes, longMix);
        run.run(4000 * threads, 500);
        run.truncateAll();
        run.run(1000 * threads, 500);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, LogRegionStoreDiff,
    ::testing::Values(std::make_pair(std::uint64_t(0), 1u),
                      std::make_pair(std::uint64_t(0), 2u),
                      std::make_pair(std::uint64_t(0), 4u),
                      std::make_pair(std::uint64_t(256), 1u),
                      std::make_pair(std::uint64_t(256), 3u),
                      std::make_pair(std::uint64_t(1024), 4u)),
    [](const auto &info) {
        return (info.param.first ? "seg" + std::to_string(
                                              info.param.first)
                                 : std::string("flat")) +
               "_" + std::to_string(info.param.second) + "t";
    });

} // namespace
} // namespace silo::log
