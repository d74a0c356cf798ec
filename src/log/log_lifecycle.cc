#include "log/log_lifecycle.hh"

#include <map>
#include <string>
#include <utility>

#include "sim/tracer.hh"

namespace silo::log
{

LogLifecycle::LogLifecycle(EventQueue &eq, const SimConfig &cfg,
                           mc::McRouter &mc, LogRegionStore &logs,
                           PersistEventSink *checker)
    : _eq(eq), _cfg(cfg), _mc(mc), _logs(logs), _checker(checker),
      _threads(cfg.numCores)
{
    _logs.setSegmentation(_cfg.logSegmentBytes);
    // Force-release window: long enough that real backpressure bites
    // (hundreds of ticks of stalling), short enough that an adversarial
    // program — one giant uncommitted transaction the cleaner cannot
    // free — cannot hold append completions hostage forever.
    _overrunCycles = _cfg.logLifecycleTickCycles * 512;
    scheduleTick();
}

std::int64_t
LogLifecycle::freeSegments(unsigned tid) const
{
    return std::int64_t(_cfg.logSegmentsPerThread) -
           std::int64_t(_logs.nonCleanSegments(tid));
}

bool
LogLifecycle::capacityLow(unsigned tid) const
{
    return freeSegments(tid) <= std::int64_t(_cfg.logCleanReserve);
}

void
LogLifecycle::noteAppend(unsigned tid, unsigned bytes)
{
    _threads.at(tid).appendedSinceCkpt += bytes;
}

void
LogLifecycle::gate(unsigned tid, std::function<void()> done)
{
    if (!capacityLow(tid)) {
        done();
        return;
    }
    ++_stats.admissionStalls;
    _threads.at(tid).gated.push_back(GatedDone{_eq.now(),
                                               std::move(done)});
}

void
LogLifecycle::onTxCommitted(unsigned core, std::uint16_t txid)
{
    _threads.at(core).lastCommitted = txid;
}

bool
LogLifecycle::committed(const LogRecord &rec) const
{
    // The replay core begins a transaction only after the previous one
    // committed and increments the txid at every Tx_begin: only the
    // txid after the last committed one can be open.
    return rec.txid !=
           std::uint16_t(_threads.at(rec.tid).lastCommitted + 1);
}

void
LogLifecycle::scheduleTick()
{
    _eq.scheduleAfter(_cfg.logLifecycleTickCycles, [this] { tick(); },
                      EventQueue::prioDefault, prof::Tag::LogScheme);
}

void
LogLifecycle::tick()
{
    for (unsigned tid = 0; tid < _threads.size(); ++tid) {
        maybeStart(tid);
        releaseGated(tid);
    }
    scheduleTick();
}

void
LogLifecycle::maybeStart(unsigned tid)
{
    ThreadState &ts = _threads[tid];
    if (ts.busy)
        return;
    bool pressure = capacityLow(tid);
    bool ckpt_due = ts.appendedSinceCkpt >= _cfg.logCheckpointBytes;
    bool can_clean =
        _logs.headSegment(tid) != _logs.activeSegment(tid);
    if (pressure && can_clean)
        startClean(tid);
    else if (ckpt_due || pressure)
        startCheckpoint(tid);
}

void
LogLifecycle::startClean(unsigned tid)
{
    ThreadState &ts = _threads[tid];
    ts.busy = true;
    ts.opStart = _eq.now();
    ts.cleanSegment = _logs.headSegment(tid);
    ts.cleanRecords = _logs.recordsInSegment(tid, ts.cleanSegment);
    ts.cleanIdx = 0;
    cleanStep(tid);
}

bool
LogLifecycle::cleanerDead(const LogRecord &rec) const
{
    // The cleaner may drop checkpoint markers (superseded by the next
    // checkpoint's) and the undo halves of committed transactions.
    // Commit markers and redo data of committed transactions stay live
    // until a checkpoint flushes the committed image: dropping a commit
    // marker while its transaction's records remain would make recovery
    // undo a committed transaction.
    if (rec.kind == LogRecord::Kind::Checkpoint)
        return true;
    return committed(rec) && rec.kind == LogRecord::Kind::Undo;
}

void
LogLifecycle::cleanStep(unsigned tid)
{
    ThreadState &ts = _threads[tid];
    while (ts.cleanIdx < ts.cleanRecords.size()) {
        const auto &[addr, rec] = ts.cleanRecords[ts.cleanIdx];
        ++ts.cleanIdx;
        // A scheme truncation (commit-time head bump) may have raced
        // ahead of the snapshot; records it erased need no work.
        if (!_logs.hasRecord(addr))
            continue;
        if (cleanerDead(rec)) {
            _logs.dropRecord(addr, LogDropReason::Checkpointed);
            ++_stats.recordsDropped;
            _eq.scheduleAfter(_cfg.logCleanPerRecordCycles,
                              [this, tid] { cleanStep(tid); },
                              EventQueue::prioDefault,
                              prof::Tag::LogScheme);
            return;
        }
        migrate(tid, addr, rec);
        return;
    }
    finishClean(tid);
}

void
LogLifecycle::migrate(unsigned tid, Addr old_addr, const LogRecord &rec)
{
    // The copy keeps the original's LSN (stamped at first persist), so
    // a crash while both copies are durable replays the record once.
    // It is durable from the hand-off to the MC's ADR log path on; the
    // original is dropped only once the WPQ accepted the copy.
    Addr new_addr = _logs.allocate(tid, rec.sizeBytes());
    _mc.writeLog(new_addr, rec, [this, tid, old_addr, new_addr] {
        if (_logs.dropRecord(old_addr, LogDropReason::Migrated)) {
            ++_stats.recordsMigrated;
        } else {
            // The original vanished mid-flight (scheme truncation at
            // commit): the copy itself is now dead — every truncating
            // scheme commits data durably before truncating.
            _logs.dropRecord(new_addr, LogDropReason::Checkpointed);
            ++_stats.recordsDropped;
        }
        _eq.scheduleAfter(_cfg.logCleanPerRecordCycles,
                          [this, tid] { cleanStep(tid); },
                          EventQueue::prioDefault, prof::Tag::LogScheme);
    });
}

void
LogLifecycle::finishClean(unsigned tid)
{
    ThreadState &ts = _threads[tid];
    _logs.reclaimSegment(tid, ts.cleanSegment);
    ++_stats.segmentsReclaimed;
    if (trace::Tracer *tr = _eq.tracer()) {
        auto track = tr->track("lifecycle", "t" + std::to_string(tid));
        tr->completeSpan(track, "clean-segment", ts.opStart, _eq.now());
    }
    ts.cleanRecords.clear();
    ts.busy = false;
    releaseGated(tid);
    // Cleaning freed one ring slot but committed redo stays pinned; if
    // that was not enough, a checkpoint is what truly frees capacity.
    if (capacityLow(tid))
        startCheckpoint(tid);
}

void
LogLifecycle::startCheckpoint(unsigned tid)
{
    ThreadState &ts = _threads[tid];
    ts.busy = true;
    ts.opStart = _eq.now();
    ts.ckptWords.clear();
    ts.ckptDrops.clear();
    ts.ckptIdx = 0;

    // Snapshot: per data word, the latest (highest-LSN) committed value
    // carried by this thread's log; plus every record the checkpoint
    // will make redundant (all records of committed transactions and
    // stale checkpoint markers).
    std::map<Addr, std::pair<std::uint64_t, Word>> latest;
    _logs.forEachLive(tid, [&](Addr addr, const LogRecord &rec) {
        if (rec.kind == LogRecord::Kind::Checkpoint) {
            ts.ckptDrops.push_back(addr);
            return;
        }
        if (!committed(rec))
            return;
        ts.ckptDrops.push_back(addr);
        if (rec.kind == LogRecord::Kind::Redo ||
            rec.kind == LogRecord::Kind::UndoRedo) {
            auto &entry = latest[rec.dataAddr];
            if (rec.lsn >= entry.first)
                entry = {rec.lsn, rec.newData};
        }
    });
    for (const auto &[addr, lsn_value] : latest)
        ts.ckptWords.push_back(CkptWord{addr, lsn_value.second});

    if (ts.ckptWords.empty() && ts.ckptDrops.empty()) {
        // Nothing checkpointable (e.g. one giant open transaction).
        // Reset the byte trigger so the tick does not re-enter every
        // period; pressure-release falls to the overrun window.
        ts.appendedSinceCkpt = 0;
        ts.busy = false;
        return;
    }
    ckptStep(tid);
}

void
LogLifecycle::ckptStep(unsigned tid)
{
    ThreadState &ts = _threads[tid];
    if (ts.ckptIdx >= ts.ckptWords.size()) {
        finishCheckpoint(tid);
        return;
    }
    const CkptWord &w = ts.ckptWords[ts.ckptIdx];
    _mc.writeWord(w.addr, w.value, [this, tid] {
        // The word was accepted into the ADR domain: durable now.
        ThreadState &ts2 = _threads[tid];
        const CkptWord &w2 = ts2.ckptWords[ts2.ckptIdx++];
        if (_checker)
            _checker->onCheckpointWord(w2.addr, w2.value);
        ++_stats.checkpointWords;
        _eq.scheduleAfter(_cfg.logCheckpointPerWordCycles,
                          [this, tid] { ckptStep(tid); },
                          EventQueue::prioDefault, prof::Tag::LogScheme);
    });
}

void
LogLifecycle::finishCheckpoint(unsigned tid)
{
    ThreadState &ts = _threads[tid];
    for (Addr addr : ts.ckptDrops) {
        if (_logs.dropRecord(addr, LogDropReason::Checkpointed))
            ++_stats.recordsDropped;
    }

    // Persist the checkpoint marker through the MC log path, then
    // reclaim the run of now-empty segments at the head.
    LogRecord marker;
    marker.kind = LogRecord::Kind::Checkpoint;
    marker.tid = std::uint8_t(tid);
    Addr maddr = _logs.allocate(tid, marker.sizeBytes());
    _mc.writeLog(maddr, marker, [this, tid] {
        ThreadState &ts2 = _threads[tid];
        while (_logs.headSegment(tid) < _logs.activeSegment(tid) &&
               _logs.segmentEmpty(tid, _logs.headSegment(tid))) {
            _logs.reclaimSegment(tid, _logs.headSegment(tid));
            ++_stats.segmentsReclaimed;
        }
        ++_stats.checkpoints;
        if (trace::Tracer *tr = _eq.tracer()) {
            auto track =
                tr->track("lifecycle", "t" + std::to_string(tid));
            tr->completeSpan(track, "checkpoint", ts2.opStart,
                             _eq.now());
        }
        ts2.appendedSinceCkpt = 0;
        ts2.ckptWords.clear();
        ts2.ckptDrops.clear();
        ts2.busy = false;
        releaseGated(tid);
    });
}

void
LogLifecycle::releaseGated(unsigned tid)
{
    ThreadState &ts = _threads[tid];
    while (!ts.gated.empty()) {
        GatedDone &front = ts.gated.front();
        bool overrun = _eq.now() >= front.since + _overrunCycles;
        if (capacityLow(tid) && !overrun)
            break;
        if (capacityLow(tid) && overrun)
            ++_stats.ringOverruns;
        _stats.admissionStallCycles.sample(
            double(_eq.now() - front.since));
        auto done = std::move(front.done);
        ts.gated.pop_front();
        done();
    }
}

} // namespace silo::log
