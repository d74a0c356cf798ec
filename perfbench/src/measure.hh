/**
 * @file
 * Measurement machinery of the benchmark, shared by every workload:
 * the host clock, a heap-allocation counter, peak RSS, the reference
 * kernel that drift-corrects host time, and the in-memory span log of
 * the traced run.
 *
 * Nothing here touches the simulator: the reference kernel in
 * particular shares no code and no allocator with libsilo, so no
 * change to the program can move it.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host clock in seconds. */
double nowSeconds();

/** Heap allocations (operator new calls) made by this process. */
std::uint64_t allocCount();
/** Bytes requested by those allocations. */
std::uint64_t allocBytes();

/** VmHWM of this process in MiB (0 when /proc is unreadable). */
double peakRssMib();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Drift correction for one measured section.
 *
 * The host's speed drifts by 15-30 % over seconds, and CPU time drifts
 * with wall time, so raw seconds from two runs of identical code do not
 * compare. The section samples a fixed reference kernel between its
 * ops; the kernel's time K tracks the host's current speed, and raw
 * time converts to reference seconds as
 *
 *     corrected = raw * nominalMs / K.
 *
 * Between begin() and end(), every stretch of work between two samples
 * is corrected by the median of the kernel samples around it (window
 * samples on either side), which follows drift within a run; outside
 * a stretch, correct() applies the median of all samples.
 *
 * The kernel is insert/erase churn on an std::pmr::map whose nodes
 * come from an arena over a static buffer (null upstream), so it shares
 * no code and no allocator with libsilo. Of the kernels tried (map
 * churn on 256, 1 K, 4 K and 16 K keys; a 4 MiB pointer chase), churn
 * on 4 K keys tracked the simulator best.
 */
class Drift
{
  public:
    /** The kernel's time on the reference host, in ms. */
    static constexpr double nominalMs = 2.0;
    /** Samples on either side of a stretch that correct it. */
    static constexpr std::size_t window = 3;

    /** Start a timed stretch. */
    void begin();
    /** End the current piece of the stretch, sample, start the next. */
    void sample();
    /** End the timed stretch. */
    void end();

    /** Seconds of work inside stretches (kernel time excluded). */
    double rawSeconds() const;
    /** The same, drift-corrected piece by piece. */
    double correctedSeconds() const;

    /** Host seconds spent running the kernel. */
    double overheadSeconds() const { return _overhead; }

    const std::vector<double> &samplesMs() const { return _samples; }

    /** K: median kernel time in ms (nominalMs before any sample). */
    double medianMs() const;

    /** Convert raw host seconds with the median of all samples. */
    double correct(double raw_seconds) const
    {
        return raw_seconds * nominalMs / medianMs();
    }

  private:
    struct Piece
    {
        double seconds;
        /** Samples taken before the piece ended. */
        std::size_t samplesBefore;
    };

    void closePiece(double now);

    std::vector<double> _samples;
    std::vector<Piece> _pieces;
    /** Start of the open piece; negative outside a stretch. */
    double _pieceStart = -1;
    double _overhead = 0;
};

/** One traced interval: a call into a layer, or one whole op. */
struct Span
{
    const char *name;
    double start;
    double end;
    /** Index of the enclosing span, -1 for a root. */
    int parent;
    /** Op the span belongs to; 0 outside ops (set-up). */
    std::uint64_t op;
};

/**
 * Spans of the traced run, kept in memory and summarized at exit. A
 * span's self time is its duration minus that of its direct children.
 */
class SpanLog
{
  public:
    SpanLog();

    int open(const char *name, std::uint64_t op);
    void close(int index);

    /** Op id of the innermost open span (0 when none). */
    std::uint64_t currentOp() const;

    /** A fresh op id. */
    std::uint64_t newOp() { return ++_lastOp; }

    const std::deque<Span> &spans() const { return _spans; }

  private:
    /** A deque: growing it never copies, so no span absorbs a copy. */
    std::deque<Span> _spans;
    std::vector<int> _stack;
    std::uint64_t _lastOp = 0;
};

/**
 * RAII span. A null log makes it a single branch, so the untimed and
 * traced runs execute the same code.
 */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name, std::uint64_t op = 0)
        : _log(log)
    {
        if (_log)
            _index = _log->open(name, op ? op : _log->currentOp());
    }
    ~SpanScope() { close(); }

    /** End the span before its scope does (innermost span only). */
    void
    close()
    {
        if (_log && _index >= 0)
            _log->close(_index);
        _index = -1;
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *_log;
    int _index = -1;
};

/** Allocations and bytes made between construction and read. */
class AllocDelta
{
  public:
    AllocDelta() : _count(allocCount()), _bytes(allocBytes()) {}
    std::uint64_t count() const { return allocCount() - _count; }
    std::uint64_t bytes() const { return allocBytes() - _bytes; }

  private:
    std::uint64_t _count;
    std::uint64_t _bytes;
};

/** FNV-1a over every op's simulated outputs. */
class Digest
{
  public:
    void add(const void *data, std::size_t len);
    void add(std::uint64_t v) { add(&v, sizeof v); }
    void add(const std::string &s)
    {
        add(std::uint64_t(s.size()));
        add(s.data(), s.size());
    }
    std::string hex() const;

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/** Round-trippable number formatting for the JSON output. */
std::string jsonNum(double v);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
