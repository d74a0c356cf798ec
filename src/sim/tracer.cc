#include "sim/tracer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace silo::trace
{

Tracer::TrackId
Tracer::track(const std::string &process, const std::string &thread)
{
    if (!_enabled)
        return 0;
    for (TrackId i = 0; i < _tracks.size(); ++i) {
        if (_tracks[i].process == process && _tracks[i].thread == thread)
            return i;
    }
    std::uint32_t pid = 0;
    for (std::uint32_t p = 0; p < _processes.size(); ++p) {
        if (_processes[p] == process)
            pid = p + 1;
    }
    if (pid == 0) {
        _processes.push_back(process);
        pid = std::uint32_t(_processes.size());
    }
    _tracks.push_back(Track{process, thread, pid});
    return TrackId(_tracks.size() - 1);
}

void
Tracer::completeSpan(TrackId track, std::string name, Tick start,
                     Tick end)
{
    if (!_enabled)
        return;
    if (end < start)
        end = start;
    _events.push_back(Event{Kind::Complete, track, std::move(name),
                            start, end - start, 0});
}

void
Tracer::counter(TrackId track, std::string name, Tick ts, double value)
{
    if (!_enabled)
        return;
    _events.push_back(
        Event{Kind::Counter, track, std::move(name), ts, 0, value});
}

void
Tracer::instant(TrackId track, std::string name, Tick ts)
{
    if (!_enabled)
        return;
    _events.push_back(
        Event{Kind::Instant, track, std::move(name), ts, 0, 0});
}

void
Tracer::writeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        os << (first ? "\n" : ",\n");
        first = false;
    };

    // Track metadata first (ts 0 keeps per-track timestamps monotone).
    for (std::uint32_t p = 0; p < _processes.size(); ++p) {
        sep();
        os << "{\"ph\":\"M\",\"pid\":" << p + 1
           << ",\"tid\":0,\"ts\":0,\"name\":\"process_name\","
              "\"args\":{\"name\":\""
           << jsonEscape(_processes[p]) << "\"}}";
    }
    for (TrackId t = 0; t < _tracks.size(); ++t) {
        sep();
        os << "{\"ph\":\"M\",\"pid\":" << _tracks[t].pid << ",\"tid\":"
           << t + 1
           << ",\"ts\":0,\"name\":\"thread_name\",\"args\":{\"name\":\""
           << jsonEscape(_tracks[t].thread) << "\"}}";
    }

    // Emit events sorted by start time; the sort is stable, so
    // same-tick events keep recording order and timestamps are
    // monotone within every track.
    std::vector<std::size_t> order(_events.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return _events[a].ts < _events[b].ts;
                     });

    for (std::size_t i : order) {
        const Event &e = _events[i];
        const Track &tr = _tracks[e.track];
        sep();
        os << "{\"ph\":\"";
        switch (e.kind) {
          case Kind::Complete: os << 'X'; break;
          case Kind::Counter: os << 'C'; break;
          case Kind::Instant: os << 'i'; break;
        }
        os << "\",\"pid\":" << tr.pid << ",\"tid\":" << e.track + 1
           << ",\"ts\":" << jsonNum(double(e.ts) / _ticksPerUs)
           << ",\"name\":\"" << jsonEscape(e.name) << "\"";
        switch (e.kind) {
          case Kind::Complete:
            os << ",\"dur\":" << jsonNum(double(e.dur) / _ticksPerUs);
            break;
          case Kind::Counter:
            os << ",\"args\":{\"value\":" << jsonNum(e.value) << "}";
            break;
          case Kind::Instant:
            os << ",\"s\":\"t\"";
            break;
        }
        os << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

void
Tracer::writeJson(const std::string &path) const
{
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path());
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot open trace file " + path);
    writeJson(os);
    if (!os)
        fatal("failed writing trace file " + path);
}

} // namespace silo::trace
