#include "sim/profiler.hh"

#include <filesystem>
#include <fstream>
#include <thread>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace silo::prof
{

namespace
{

std::atomic<Profiler *> g_profiler{nullptr};

} // namespace

const char *
tagName(Tag t)
{
    switch (t) {
      case Tag::Core: return "core";
      case Tag::Mc: return "mc";
      case Tag::Nvm: return "nvm";
      case Tag::LogScheme: return "log_scheme";
      case Tag::Checker: return "checker";
      case Tag::Stats: return "stats";
      case Tag::Other: return "other";
      case Tag::TraceCompile: return "trace_compile";
      case Tag::Simulate: return "simulate";
      case Tag::StatsExport: return "stats_export";
      case Tag::JsonEmit: return "json_emit";
    }
    panic("tagName: invalid prof::Tag");
}

ThreadProfile *
Profiler::threadProfile()
{
    std::lock_guard<std::mutex> lock(_m);
    auto [it, inserted] =
        _byThread.try_emplace(std::this_thread::get_id(), nullptr);
    if (inserted) {
        _profiles.emplace_back();
        it->second = &_profiles.back();
    }
    return it->second;
}

std::size_t
Profiler::threadCount() const
{
    std::lock_guard<std::mutex> lock(_m);
    return _profiles.size();
}

std::array<TagCounters, numTags>
Profiler::merged() const
{
    std::lock_guard<std::mutex> lock(_m);
    std::array<TagCounters, numTags> sum{};
    for (const ThreadProfile &tp : _profiles) {
        const auto &tags = tp.counters();
        for (std::size_t t = 0; t < numTags; ++t) {
            sum[t].selfNanos += tags[t].selfNanos;
            sum[t].totalNanos += tags[t].totalNanos;
            sum[t].count += tags[t].count;
        }
    }
    return sum;
}

void
Profiler::writeJson(const std::string &path, double wall_seconds) const
{
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path());
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot open profile output file " + path);

    std::array<TagCounters, numTags> sum = merged();
    std::uint64_t self_total = 0;
    for (const TagCounters &c : sum)
        self_total += c.selfNanos;
    double coverage =
        wall_seconds > 0 ? double(self_total) * 1e-9 / wall_seconds
                         : 0;

    auto emitTag = [&os](Tag t, const TagCounters &c,
                         const char *count_key, bool last) {
        os << "    \"" << tagName(t) << "\": {\"self_seconds\": "
           << jsonNum(double(c.selfNanos) * 1e-9)
           << ", \"total_seconds\": "
           << jsonNum(double(c.totalNanos) * 1e-9) << ", \""
           << count_key << "\": " << c.count << "}"
           << (last ? "\n" : ",\n");
    };

    os << "{\n";
    os << "  \"schema\": \"silo-prof-v1\",\n";
    os << "  \"wall_seconds\": " << jsonNum(wall_seconds) << ",\n";
    os << "  \"threads\": " << threadCount() << ",\n";
    os << "  \"coverage\": " << jsonNum(coverage) << ",\n";
    os << "  \"domains\": {\n";
    for (std::size_t t = 0; t < numDomains; ++t)
        emitTag(Tag(t), sum[t], "dispatches", t + 1 == numDomains);
    os << "  },\n";
    os << "  \"phases\": {\n";
    for (std::size_t t = numDomains; t < numTags; ++t)
        emitTag(Tag(t), sum[t], "count", t + 1 == numTags);
    os << "  }\n";
    os << "}\n";
    if (!os)
        fatal("failed writing profile output file " + path);
}

Profiler *
Profiler::current()
{
    return g_profiler.load(std::memory_order_acquire);
}

void
Profiler::install(Profiler *p)
{
    g_profiler.store(p, std::memory_order_release);
}

ThreadProfile *
currentThreadProfile()
{
    Profiler *current = Profiler::current();
    if (!current)
        return nullptr;
    // Cache per (thread, profiler): tests install and uninstall
    // profilers around sweeps, so the owner must be re-checked.
    thread_local Profiler *owner = nullptr;
    thread_local ThreadProfile *slab = nullptr;
    if (owner != current) {
        slab = current->threadProfile();
        owner = current;
    }
    return slab;
}

} // namespace silo::prof
