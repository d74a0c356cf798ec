#include "core/replay_core.hh"

#include "sim/logging.hh"

namespace silo::core
{

using workload::TxOp;

namespace
{

/** Fixed non-memory cost charged per replayed operation. */
constexpr Cycles opOverheadCycles = 1;

} // namespace

ReplayCore::ReplayCore(unsigned id, EventQueue &eq,
                       mem::CacheHierarchy &hierarchy,
                       log::LoggingScheme &scheme,
                       log::PersistEventSink *checker,
                       log::LogLifecycle *lifecycle, WordStore &values,
                       const workload::ThreadTrace &trace,
                       Callback on_finished)
    : _id(id), _eq(eq), _hierarchy(hierarchy),
      _scheme(scheme), _checker(checker), _lifecycle(lifecycle),
      _values(values), _trace(trace),
      _onFinished(std::move(on_finished)),
      _statGroup("core" + std::to_string(id))
{
    if (auto *tr = _eq.tracer())
        _track = tr->track("cores", "core" + std::to_string(id));
}

void
ReplayCore::start()
{
    _eq.scheduleAfter(0, [this] { step(); }, EventQueue::prioCore,
                      prof::Tag::Core);
}

void
ReplayCore::advanceAfter(Cycles delay)
{
    _eq.scheduleAfter(delay + opOverheadCycles, [this] { step(); },
                      EventQueue::prioCore, prof::Tag::Core);
}

void
ReplayCore::step()
{
    if (_cursor >= _trace.ops.size()) {
        if (_onFinished)
            _onFinished();
        return;
    }

    const TxOp &op = _trace.ops[_cursor++];
    switch (op.kind) {
      case TxOp::Kind::TxBegin:
        if (_inTx)
            panic("trace opened a nested transaction");
        _inTx = true;
        ++_txid;
        _txStart = _eq.now();
        if (_checker)
            _checker->onTxBegin(_id, _txid);
        _scheme.txBegin(_id, _txid);
        advanceAfter(0);
        break;

      case TxOp::Kind::Load:
        doLoad(op);
        break;

      case TxOp::Kind::Store:
        doStore(op);
        break;

      case TxOp::Kind::TxEnd:
        if (!_inTx)
            panic("trace closed a transaction that was not open");
        doTxEnd();
        break;
    }
}

void
ReplayCore::doLoad(const TxOp &op)
{
    _hierarchy.access(_id, op.addr, false, [this] { advanceAfter(0); });
}

void
ReplayCore::doStore(const TxOp &op)
{
    _hierarchy.access(_id, op.addr, true, [this] { storeRetired(); });
}

void
ReplayCore::storeRetired()
{
    // One access is outstanding per core: the retiring store is the op
    // step() issued last.
    const TxOp &op = _trace.ops[_cursor - 1];
    // The store retires in L1D: the log generator captures the old
    // data during tag match and the new data from the in-flight write
    // (§III-B).
    Word old_val = _values.load(op.addr);
    _values.store(op.addr, op.value);
    _hookStart = _eq.now();
    if (_checker)
        _checker->onStore(_id, op.addr, old_val, op.value);
    _scheme.store(_id, op.addr, old_val, op.value,
                  [this] { storeAccepted(); });
}

void
ReplayCore::storeAccepted()
{
    _storeStalls += _eq.now() - _hookStart;
    if (auto *tr = _eq.tracer()) {
        if (_eq.now() > _hookStart)
            tr->completeSpan(_track, "store-wait", _hookStart, _eq.now());
    }
    advanceAfter(0);
}

void
ReplayCore::doTxEnd()
{
    _commitRequestedOpIndex = _cursor;
    Tick commit_start = _eq.now();
    if (auto *tr = _eq.tracer())
        tr->completeSpan(_track, "execute", _txStart, commit_start);
    if (_checker)
        _checker->onTxEndRequested(_id);
    _scheme.txEnd(_id, [this, commit_start] {
        // Durable now: the lifecycle engine may retire the records
        // (redo data stays pinned until a checkpoint flushes it), then
        // the checker validates the commit.
        if (_lifecycle)
            _lifecycle->onTxCommitted(_id, _txid);
        if (_checker)
            _checker->onTxEndComplete(_id);
        _commitStalls += _eq.now() - commit_start;
        _commitStallDist.sample(_eq.now() - commit_start);
        if (auto *tr = _eq.tracer()) {
            tr->completeSpan(_track, "commit-wait", commit_start,
                             _eq.now());
            tr->completeSpan(_track, "tx", _txStart, _eq.now());
        }
        _inTx = false;
        ++_committedTx;
        _committedOpIndex = _commitRequestedOpIndex;
        advanceAfter(0);
    });
}

} // namespace silo::core
