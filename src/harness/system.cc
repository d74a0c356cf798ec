#include "harness/system.hh"

#include <algorithm>

#include "log/morlog_scheme.hh"
#include "log/sw_eadr_scheme.hh"
#include "log/wal_recovery.hh"
#include "silo/silo_scheme.hh"

namespace silo::harness
{

System::System(const SimConfig &cfg,
               const workload::WorkloadTraces &traces)
    : _cfg(cfg), _traces(traces), _domain(_cfg)
{
    _cfg.validate();
    if (_traces.threads.size() < _cfg.numCores)
        fatal("trace has fewer threads than configured cores");

    // Host-time profiling: attach the constructing thread's slab (the
    // sweep worker that will run this System) when a profiler is
    // installed; null otherwise, costing one branch per dispatch.
    _eq.setProfiler(prof::currentThreadProfile());

    if (!_cfg.tracePath.empty()) {
        // Attach before any component exists so their constructors can
        // register trace tracks via _eq.tracer().
        _tracer = std::make_unique<trace::Tracer>();
        _tracer->enable(coreGhz * 1000.0);
        _eq.setTracer(_tracer.get());
    }

    _values.loadImage(traces.initialMemory);
    _domain.media.loadImage(traces.initialMemory);
    _pm = std::make_unique<nvm::PmDevice>(_eq, _cfg, _domain);
    _mc = std::make_unique<mc::McRouter>(_eq, _cfg, *_pm, _domain);

    _hierarchy = std::make_unique<mem::CacheHierarchy>(_eq, _cfg, *_mc,
                                                       _values);

    log::SchemeContext ctx{_eq, _cfg, *_mc, *_hierarchy, _domain,
                           _values};
    if (_cfg.checker) {
        // Shadow the whole persist path: the checker observes log
        // persists, truncations and drops and WPQ accepts, releases and
        // discards, and reads the domain's ADR log paths; the cores
        // report tx boundaries and stores to it.
        _checker = std::make_unique<check::PersistencyChecker>(_cfg, _eq,
                                                               _domain);
        _domain.logs.setEventSink(_checker.get());
        _mc->setCheckSink(_checker.get());
        ctx.checker = _checker.get();
    }
    if (_cfg.logSegmented) {
        _lifecycle = std::make_unique<log::LogLifecycle>(
            _eq, _cfg, *_mc, _domain.logs, _checker.get());
        ctx.lifecycle = _lifecycle.get();
    }
    _scheme = log::makeScheme(ctx);

    for (unsigned c = 0; c < _cfg.numCores; ++c) {
        _cores.push_back(std::make_unique<core::ReplayCore>(
            c, _eq, *_hierarchy, *_scheme, _checker.get(),
            _lifecycle.get(), _values, _traces.threads[c], [this] {
                // Periodic machinery (e.g., FWB's walker) keeps the
                // event queue alive forever; stop once every core has
                // retired its trace. drainToMedia() settles leftovers.
                if (++_finishedCores == _cfg.numCores)
                    _eq.requestStop();
            }));
    }

    if (_tracer) {
        Cycles period = cyclesFromNs(_cfg.traceSampleNs);
        _sampler = std::make_unique<trace::IntervalSampler>(
            _eq, *_tracer, period);
        auto track = _tracer->track("counters", "sampler");
        for (unsigned i = 0; i < _mc->numControllers(); ++i) {
            mc::MemController &mc = _mc->controllerAt(i);
            _sampler->addCounter(
                track, mc.statGroup().name() + "_wpq_occupancy",
                [&mc] { return double(mc.wpqOccupancy()); });
        }
        _sampler->addCounter(track, "log_buffer_fill", [this] {
            return double(_scheme->logBufferFill());
        });
        _sampler->addCounter(track, "pm_busy_banks", [this] {
            return double(_pm->busyBanks());
        });
        _sampler->addCounter(track, "pm_buffer_occupancy", [this] {
            return double(_pm->bufferOccupancy());
        });
        _sampler->addCounter(track, "dcw_suppressed_words", [this] {
            return double(_pm->dcwSuppressedWords());
        });
        for (unsigned c = 0; c < _cfg.numCores; ++c) {
            _sampler->addCounter(
                track, "core" + std::to_string(c) + "_commit_stalls",
                [this, c] {
                    return double(_cores[c]->commitStallCycles());
                });
        }
    }
}

System::~System()
{
    if (_tracer && !_traceWritten) {
        try {
            writeTrace();
        } catch (const std::exception &e) {
            warn(std::string("trace not written: ") + e.what());
        }
    }
    _eq.setTracer(nullptr);
}

void
System::run()
{
    runEvents(~std::uint64_t(0));
}

bool
System::runEvents(std::uint64_t max_events)
{
    if (!_started) {
        for (auto &core : _cores)
            core->start();
        if (_sampler)
            _sampler->start();
        _started = true;
    }
    _eq.run(max_events);
    return !_eq.empty() && !_eq.stopRequested();
}

void
System::crash()
{
    if (_crashed)
        panic("double crash");
    _crashed = true;
    if (trace::Tracer *tr = _eq.tracer()) {
        for (unsigned i = 0; i < _mc->numControllers(); ++i) {
            tr->instant(tr->track("mem", _mc->controllerAt(i)
                                             .statGroup().name()),
                        "adr-crash-drain", _eq.now());
        }
    }
    _scheme->captureAtCrash(_domain);
    _scheme->noteCrashFlush(crashDomain(_domain, _cfg, _checker.get(),
                                        _eq.now(), &_pm->pmStats()));
    // Volatile caches lose everything.
    _hierarchy->invalidateAll();
}

void
System::recover()
{
    if (!_crashed)
        panic("recover() without a crash");
    recoverDomain(_domain, _cfg, _checker.get());
}

void
System::crashCopy(DomainCopy &out) const
{
    // Assignment reuses out's storage; its log region keeps its own
    // (re)bound sink.
    out.domain = _domain;
    _scheme->captureAtCrash(out.domain);
    check::PersistencyChecker *checker = nullptr;
    if (_checker) {
        if (out.checker)
            *out.checker = *_checker;
        else
            out.checker.emplace(*_checker);
        checker = &*out.checker;
    } else {
        out.checker.reset();
    }
    out.domain.logs.setEventSink(checker);
    crashDomain(out.domain, _cfg, checker, _eq.now(), nullptr);
    out.liveRecordsAtCrash = out.domain.logs.liveRecordCount();
    recoverDomain(out.domain, _cfg, checker);
}

void
System::settle(Cycles grace)
{
    _eq.clearStop();
    _eq.runUntil(_eq.now() + grace);
}

void
System::drainToMedia()
{
    // Clean shutdown: write back every dirty line, then drain queues.
    // Lines of a still-open transaction (a trace can end inside one —
    // litmus `tx abort`) are dropped with the volatile caches when the
    // scheme's only revocation mechanism for them is discard.
    for (Addr line : _hierarchy->allDirtyLines()) {
        if (_scheme->dropAtShutdown(line))
            continue;
        std::array<Word, wordsPerLine> values;
        for (unsigned w = 0; w < wordsPerLine; ++w)
            values[w] = _values.load(line + Addr(w) * wordBytes);
        while (!_mc->tryWriteLine(line, values, false))
            _mc->drainAll();
    }
    _hierarchy->invalidateAll();
    _mc->drainAll();
}

void
System::finish()
{
    run();
    settle();
    drainToMedia();
}

std::string
System::statsJson() const
{
    stats::StatRegistry reg;
    reg.add("pm", _pm->statGroup());
    unsigned n_mc = _mc->numControllers();
    for (unsigned i = 0; i < n_mc; ++i) {
        reg.add(n_mc == 1 ? "mc" : "mc/" + std::to_string(i),
                _mc->controllerAt(i).statGroup());
    }
    for (unsigned c = 0; c < _cfg.numCores; ++c) {
        std::string idx = std::to_string(c);
        reg.add("core/" + idx, _cores[c]->statGroup());
        reg.add("cache/l1d/" + idx, _hierarchy->l1(c).statGroup());
        reg.add("cache/l2/" + idx, _hierarchy->l2(c).statGroup());
    }
    reg.add("cache/l3", _hierarchy->l3().statGroup());
    reg.add("scheme", _scheme->schemeStats().group);
    if (const auto *extra = _scheme->extraStatGroup())
        reg.add("scheme_extra", *extra);
    if (_lifecycle)
        reg.add("log_lifecycle", _lifecycle->statGroup());
    return reg.toJson();
}

void
System::writeTrace()
{
    if (!_tracer || _traceWritten)
        return;
    if (_sampler)
        _sampler->flush(_eq.now());
    _tracer->writeJson(_cfg.tracePath);
    _traceWritten = true;
}

SimReport
System::report() const
{
    SimReport r;
    for (const auto &core : _cores) {
        r.committedTransactions += core->committedTx();
        r.commitStallCycles += core->commitStallCycles();
        r.storeStallCycles += core->storeStallCycles();
    }
    r.ticks = _eq.now();
    if (r.ticks > 0) {
        r.txPerMillionCycles = double(r.committedTransactions) * 1e6 /
                               double(r.ticks);
    }
    r.mediaWordWrites = _pm->mediaWordWrites();
    r.mediaLineWrites = _pm->mediaLineWrites();
    r.dataRegionWordWrites = _pm->dataRegionWordWrites();
    r.logRegionWordWrites = _pm->logRegionWordWrites();
    r.logRecordsWritten = _scheme->schemeStats().logWrites.value();
    r.wpqFullStalls = _mc->fullStalls();
    r.wpqAcceptedWrites = _mc->acceptedWrites();
    r.wpqAcceptedBytes = _mc->acceptedBytes();
    return r;
}

WordStore
committedPrefixImage(System &sys, const workload::WorkloadTraces &traces)
{
    WordStore image = traces.initialMemory;
    for (unsigned t = 0; t < sys.numCores(); ++t) {
        std::size_t upto = sys.coreAt(t).committedOpIndex();
        if (sys.scheme().lastTxCommittedAtCrash(t))
            upto = std::max(upto, sys.coreAt(t).commitRequestedOpIndex());
        for (std::size_t i = 0; i < upto; ++i) {
            const auto &op = traces.threads[t].ops[i];
            if (op.kind == workload::TxOp::Kind::Store)
                image[op.addr] = op.value;
        }
    }
    return image;
}

std::uint64_t
crashDomain(PersistentDomain &domain, const SimConfig &cfg,
            check::PersistencyChecker *checker, Tick now,
            nvm::PmStats *pm_stats)
{
    if (checker)
        checker->onCrashBegin(domain);
    // 1. The MCs' ADR log paths complete: every log record still
    //    waiting for a WPQ slot (a scheme's or the lifecycle
    //    engine's) persists.
    for (mc::McState &mc : domain.mcs)
        mc::flushLogPath(mc, domain.logs);
    // 2. Battery-backed flush of each scheme's declared state (Silo
    //    §III-G); the other schemes' parts are empty.
    std::uint64_t flushed =
        silo_scheme::SiloScheme::batteryFlush(domain.silo, domain.logs,
                                              cfg.mutation) +
        log::MorLogScheme::batteryFlush(domain.morlog, domain.logs) +
        log::SwEadrScheme::batteryFlush(domain.eadr, domain.media);
    // 3. ADR: the WPQs and the on-PM buffer drain to media; LAD's held
    //    (uncommitted) entries are discarded.
    for (mc::McState &mc : domain.mcs)
        mc::crashDrain(mc, domain, now, checker, pm_stats);
    return flushed;
}

void
recoverDomain(PersistentDomain &domain, const SimConfig &cfg,
              check::PersistencyChecker *checker)
{
    log::walRecover(domain.logs, cfg.numCores, domain.media);
    if (checker)
        checker->onRecoveryComplete();
}

std::uint64_t
sweepCrashes(
    System &sys, std::uint64_t stride,
    const std::function<bool(std::uint64_t, const DomainCopy &)> &fn)
{
    const EventQueue &eq = sys.eventQueue();
    if (eq.executedEvents() != 0 || stride == 0)
        panic("sweepCrashes() needs a fresh System and a positive stride");
    DomainCopy copy;
    std::uint64_t k = 1;
    bool wanted = true;
    bool stopped = false;
    while (wanted && !stopped) {
        stopped = !sys.runEvents(k - eq.executedEvents());
        sys.crashCopy(copy);
        if (eq.executedEvents() < k)
            break; // k lies past the stop point
        wanted = fn(k, copy);
        k += stride;
    }
    sys.finish();
    const std::uint64_t last = eq.executedEvents();
    // Past the stop point every index crashes the stop-point state.
    for (; wanted && k <= last; k += stride)
        wanted = fn(k, copy);
    return last;
}

} // namespace silo::harness
