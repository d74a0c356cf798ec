#include "measure.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory_resource>
#include <new>

namespace perfbench
{

namespace
{

// Single-threaded benchmark: plain counters, no atomics on the hot
// allocation path.
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

void *
countedAlloc(std::size_t n)
{
    ++g_allocs;
    g_alloc_bytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    ++g_allocs;
    g_alloc_bytes += n;
    std::size_t align = std::max(std::size_t(al), sizeof(void *));
    void *p = nullptr;
    if (posix_memalign(&p, align, n ? n : 1) == 0)
        return p;
    throw std::bad_alloc();
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
allocCount()
{
    return g_allocs;
}

std::uint64_t
allocBytes()
{
    return g_alloc_bytes;
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
Drift::begin()
{
    _pieceStart = nowSeconds();
}

void
Drift::closePiece(double now)
{
    if (_pieceStart >= 0)
        _pieces.push_back(Piece{now - _pieceStart, _samples.size()});
}

void
Drift::end()
{
    closePiece(nowSeconds());
    _pieceStart = -1;
}

void
Drift::sample()
{
    // Fixed work on fixed memory: 4096 live keys over a 2^22 key
    // space, then 4096 erase+insert pairs; the pool recycles freed
    // nodes the way a general-purpose allocator would.
    alignas(64) static std::byte arena_buf[4u << 20];
    static volatile std::uint64_t sink = 0;

    double t0 = nowSeconds();
    closePiece(t0);
    {
        std::pmr::monotonic_buffer_resource arena(
            arena_buf, sizeof arena_buf, std::pmr::null_memory_resource());
        std::pmr::unsynchronized_pool_resource pool(&arena);
        std::pmr::map<std::uint64_t, std::uint64_t> m(&pool);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x & 0x3fffff;
        };
        for (std::uint64_t i = 0; i < 4096; ++i)
            m.emplace(next(), i);
        for (std::uint64_t i = 0; i < 4096; ++i) {
            auto it = m.lower_bound(next());
            if (it == m.end())
                it = m.begin();
            m.erase(it);
            m.emplace(next(), i);
        }
        sink = sink + m.size() + m.begin()->second;
    }
    double t1 = nowSeconds();
    _samples.push_back((t1 - t0) * 1e3);
    _overhead += t1 - t0;
    if (_pieceStart >= 0)
        _pieceStart = t1;
}

double
Drift::rawSeconds() const
{
    double sum = 0;
    for (const Piece &p : _pieces)
        sum += p.seconds;
    return sum;
}

double
Drift::correctedSeconds() const
{
    double sum = 0;
    std::size_t n = _samples.size();
    for (const Piece &p : _pieces) {
        // The piece ended at sample p.samplesBefore (or at end()).
        std::size_t lo = p.samplesBefore > window ? p.samplesBefore - window
                                                  : 0;
        std::size_t hi = std::min(n, p.samplesBefore + window + 1);
        double k = lo < hi ? median(std::vector<double>(
                                 _samples.begin() + std::ptrdiff_t(lo),
                                 _samples.begin() + std::ptrdiff_t(hi)))
                           : nominalMs;
        sum += p.seconds * nominalMs / k;
    }
    return sum;
}

double
Drift::medianMs() const
{
    return _samples.empty() ? nominalMs : median(_samples);
}

SpanLog::SpanLog()
{
    _stack.reserve(16);
}

int
SpanLog::open(const char *name, std::uint64_t op)
{
    int parent = _stack.empty() ? -1 : _stack.back();
    _spans.push_back(Span{name, 0, 0, parent, op});
    int index = int(_spans.size() - 1);
    _stack.push_back(index);
    _spans[std::size_t(index)].start = nowSeconds();
    return index;
}

void
SpanLog::close(int index)
{
    _spans[std::size_t(index)].end = nowSeconds();
    _stack.pop_back();
}

std::uint64_t
SpanLog::currentOp() const
{
    return _stack.empty() ? 0 : _spans[std::size_t(_stack.back())].op;
}

void
Digest::add(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        _h ^= p[i];
        _h *= 0x100000001b3ULL;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(_h));
    return buf;
}

std::string
jsonNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench

// The allocation counter: every global new of the process, libsilo's
// included, goes through these replacements.
void *operator new(std::size_t n) { return perfbench::countedAlloc(n); }
void *operator new[](std::size_t n) { return perfbench::countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return perfbench::countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return perfbench::countedAlignedAlloc(n, al);
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return perfbench::countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return perfbench::countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
