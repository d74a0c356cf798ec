#include "counts.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

namespace perfbench
{

namespace
{

/** Numbers of a JSON document keyed by '/'-joined path; arrays apart. */
struct FlatJson
{
    std::map<std::string, double> numbers;
    std::map<std::string, std::vector<double>> arrays;
};

/** Recursive-descent reader for the subset statsJson() emits. */
class JsonReader
{
  public:
    JsonReader(const std::string &text, FlatJson &out)
        : _s(text), _out(out)
    {}

    bool
    document()
    {
        if (!value(""))
            return false;
        skipWs();
        return _i == _s.size();
    }

  private:
    void
    skipWs()
    {
        while (_i < _s.size() && std::isspace((unsigned char)_s[_i]))
            ++_i;
    }

    bool
    string(std::string *out)
    {
        if (_i >= _s.size() || _s[_i] != '"')
            return false;
        ++_i;
        std::string v;
        while (_i < _s.size() && _s[_i] != '"') {
            if (_s[_i] == '\\' && _i + 1 < _s.size())
                ++_i;
            v += _s[_i++];
        }
        if (_i >= _s.size())
            return false;
        ++_i;
        if (out)
            *out = std::move(v);
        return true;
    }

    bool
    number(double *out)
    {
        const char *begin = _s.c_str() + _i;
        char *end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin)
            return false;
        _i += std::size_t(end - begin);
        *out = v;
        return true;
    }

    bool
    value(const std::string &path)
    {
        skipWs();
        if (_i >= _s.size())
            return false;
        char c = _s[_i];
        if (c == '{') {
            ++_i;
            skipWs();
            if (_i < _s.size() && _s[_i] == '}') {
                ++_i;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!string(&key))
                    return false;
                skipWs();
                if (_i >= _s.size() || _s[_i] != ':')
                    return false;
                ++_i;
                if (!value(path.empty() ? key : path + "/" + key))
                    return false;
                skipWs();
                if (_i < _s.size() && _s[_i] == ',') {
                    ++_i;
                    continue;
                }
                if (_i < _s.size() && _s[_i] == '}') {
                    ++_i;
                    return true;
                }
                return false;
            }
        }
        if (c == '[') {
            ++_i;
            std::vector<double> &arr = _out.arrays[path];
            skipWs();
            if (_i < _s.size() && _s[_i] == ']') {
                ++_i;
                return true;
            }
            for (;;) {
                skipWs();
                double v = 0;
                if (!number(&v))
                    return false;
                arr.push_back(v);
                skipWs();
                if (_i < _s.size() && _s[_i] == ',') {
                    ++_i;
                    continue;
                }
                if (_i < _s.size() && _s[_i] == ']') {
                    ++_i;
                    return true;
                }
                return false;
            }
        }
        if (c == '"')
            return string(nullptr);
        for (const char *lit : {"true", "false", "null"}) {
            std::size_t n = std::char_traits<char>::length(lit);
            if (_s.compare(_i, n, lit) == 0) {
                _i += n;
                return true;
            }
        }
        double v = 0;
        if (!number(&v))
            return false;
        _out.numbers[path] = v;
        return true;
    }

    const std::string &_s;
    FlatJson &_out;
    std::size_t _i = 0;
};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

} // namespace

void
SimCounts::addReport(const silo::harness::SimReport &r)
{
    ticks += r.ticks;
    committedTx += r.committedTransactions;
    commitStallCycles += r.commitStallCycles;
    wpqFullStalls += r.wpqFullStalls;
    mediaWordWrites += r.mediaWordWrites;
    logRecordsWritten += r.logRecordsWritten;
}

bool
SimCounts::addStatsJson(const std::string &json)
{
    FlatJson flat;
    if (!JsonReader(json, flat).document())
        return false;
    auto u = [](double v) { return std::uint64_t(std::llround(v)); };
    for (const auto &[path, v] : flat.numbers) {
        if (startsWith(path, "groups/cache/l1d/")) {
            if (endsWith(path, "/hits"))
                l1dHits += u(v);
            else if (endsWith(path, "/misses"))
                l1dMisses += u(v);
        } else if (startsWith(path, "groups/cache/l2/")) {
            if (endsWith(path, "/hits"))
                l2Hits += u(v);
            else if (endsWith(path, "/misses"))
                l2Misses += u(v);
        } else if (path == "groups/cache/l3/hits") {
            l3Hits += u(v);
        } else if (path == "groups/cache/l3/misses") {
            l3Misses += u(v);
        } else if (path == "groups/pm/dcw_suppressed_words") {
            dcwSuppressedWords += u(v);
        } else if (path == "groups/scheme_extra/merged") {
            siloMerged += u(v);
        } else if (path == "groups/scheme_extra/ignored") {
            siloIgnored += u(v);
        } else if (path == "groups/scheme_extra/in_place_updates") {
            siloInPlace += u(v);
        }
    }
    // WPQ occupancy lives under "mc" (one controller) or "mc/<i>".
    for (const auto &[path, buckets] : flat.arrays) {
        if (!startsWith(path, "groups/mc") ||
            !endsWith(path, "/wpq_occupancy/buckets"))
            continue;
        std::string base = path.substr(0, path.size() - 8);
        std::uint64_t width = u(flat.numbers[base + "/bucket_width"]);
        if (wpqOccWidth == 0)
            wpqOccWidth = width;
        if (width != wpqOccWidth)
            return false;
        if (wpqOccBuckets.size() < buckets.size())
            wpqOccBuckets.resize(buckets.size(), 0);
        for (std::size_t i = 0; i < buckets.size(); ++i)
            wpqOccBuckets[i] += u(buckets[i]);
        wpqOccOverflow += u(flat.numbers[base + "/overflow"]);
        wpqOccMax = std::max(wpqOccMax, u(flat.numbers[base + "/max"]));
    }
    return true;
}

double
SimCounts::wpqOccupancyP99() const
{
    // Same rule as stats::Distribution::percentile(): the upper edge of
    // the bucket where the cumulative count reaches ceil(0.99 * n),
    // clamped to the observed maximum.
    std::uint64_t n = wpqOccOverflow;
    for (std::uint64_t b : wpqOccBuckets)
        n += b;
    if (n == 0)
        return 0;
    std::uint64_t target = std::uint64_t(std::ceil(0.99 * double(n)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < wpqOccBuckets.size(); ++i) {
        cum += wpqOccBuckets[i];
        if (cum >= target)
            return double(std::min<std::uint64_t>(
                (i + 1) * wpqOccWidth - 1, wpqOccMax));
    }
    return double(wpqOccMax);
}

std::map<std::string, double>
SimCounts::simulated() const
{
    auto ratio = [](std::uint64_t miss, std::uint64_t hit) {
        return miss + hit ? double(miss) / double(miss + hit) : 0.0;
    };
    return {
        {"sim.events", double(events)},
        {"sim.ticks", double(ticks)},
        {"core.committed_tx", double(committedTx)},
        {"core.commit_stall_cycles", double(commitStallCycles)},
        {"mem.l1d_miss_ratio", ratio(l1dMisses, l1dHits)},
        {"mem.l2_miss_ratio", ratio(l2Misses, l2Hits)},
        {"mem.l3_miss_ratio", ratio(l3Misses, l3Hits)},
        {"mc.wpq_full_stalls", double(wpqFullStalls)},
        {"mc.wpq_occupancy_p99", wpqOccupancyP99()},
        {"nvm.media_word_writes", double(mediaWordWrites)},
        {"nvm.dcw_suppressed_words", double(dcwSuppressedWords)},
        {"silo.merged", double(siloMerged)},
        {"silo.ignored", double(siloIgnored)},
        {"silo.in_place_updates", double(siloInPlace)},
        {"log.records_written", double(logRecordsWritten)},
        {"log.live_records_at_crash", double(liveRecordsAtCrash)},
        {"log.mismatch_words", double(mismatchWords)},
        {"check.violations", double(violations)},
        {"fuzz.programs", double(fuzzPrograms)},
        {"fuzz.cases", double(fuzzCases)},
        {"fuzz.crash_cases", double(fuzzCrashCases)},
    };
}

} // namespace perfbench
