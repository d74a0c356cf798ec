/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Every statistic joins its component's StatGroup when it is
 * constructed, so no stat exists outside a group: the group must be
 * declared before its stats, and the stats can be neither copied nor
 * moved. All statistics are plain counters so resetting a system
 * between experiments is cheap and exact.
 */

#ifndef SILO_SIM_STATS_HH
#define SILO_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace silo::stats
{

class StatGroup;

/** A named 64-bit event counter. */
class Scalar
{
  public:
    /** Join @p group as @p name (StatGroup checks the name). */
    Scalar(StatGroup &group, std::string name);
    Scalar(const Scalar &) = delete;
    Scalar &operator=(const Scalar &) = delete;

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(std::uint64_t v) { _value += v; return *this; }

    std::uint64_t value() const { return _value; }
    const std::string &name() const { return _name; }
    void reset() { _value = 0; }

  private:
    std::string _name;
    std::uint64_t _value = 0;
};

/** A running mean over sampled values. */
class Average
{
  public:
    /** Join @p group as @p name (StatGroup checks the name). */
    Average(StatGroup &group, std::string name);
    Average(const Average &) = delete;
    Average &operator=(const Average &) = delete;

    void
    sample(double v)
    {
        _sum += v;
        ++_count;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    double mean() const { return _count ? _sum / double(_count) : 0.0; }
    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }
    double minimum() const { return _count ? _min : 0.0; }
    double maximum() const { return _count ? _max : 0.0; }
    const std::string &name() const { return _name; }

    void
    reset()
    {
        _sum = 0;
        _count = 0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

  private:
    friend class Distribution;
    /** A Distribution's summary, exported as part of it: no group. */
    Average() = default;

    std::string _name;
    double _sum = 0;
    std::uint64_t _count = 0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/** A fixed-bucket-width histogram with overflow bucket. */
class Distribution
{
  public:
    /**
     * Join @p group as @p name (StatGroup checks the name).
     * @param bucket_width Width of each bucket (0 is clamped to 1).
     * @param num_buckets Number of regular buckets before overflow.
     */
    Distribution(StatGroup &group, std::string name,
                 std::uint64_t bucket_width, unsigned num_buckets);
    Distribution(const Distribution &) = delete;
    Distribution &operator=(const Distribution &) = delete;

    void
    sample(std::uint64_t v)
    {
        _stats.sample(double(v));
        std::uint64_t idx = v / _bucketWidth;
        if (idx < _buckets.size())
            ++_buckets[idx];
        else
            ++_overflow;
    }

    const Average &summary() const { return _stats; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t bucketWidth() const { return _bucketWidth; }
    const std::string &name() const { return _name; }

    /**
     * Upper-bound estimate of the @p frac quantile (frac in (0, 1]):
     * the inclusive upper edge of the bucket where the cumulative
     * count reaches ceil(frac * count), clamped to the observed
     * maximum (exact when samples hit bucket edges). Samples that
     * landed in the overflow bucket resolve to the observed maximum.
     * @return 0 when no samples were recorded.
     */
    std::uint64_t percentile(double frac) const;

    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p95() const { return percentile(0.95); }
    std::uint64_t p99() const { return percentile(0.99); }

    /**
     * Invariant: every sample landed in exactly one bucket, so the
     * bucket counts plus the overflow must equal the summary count.
     * The JSON serializer asserts this before exporting.
     */
    bool
    countsConsistent() const
    {
        std::uint64_t total = _overflow;
        for (std::uint64_t b : _buckets)
            total += b;
        return total == _stats.count();
    }

    void
    reset()
    {
        _stats.reset();
        std::fill(_buckets.begin(), _buckets.end(), 0);
        _overflow = 0;
    }

  private:
    std::string _name;
    std::uint64_t _bucketWidth = 1;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _overflow = 0;
    Average _stats;
};

/**
 * The statistics of one component, exported as one JSON object.
 *
 * Each stat joins its group in its constructor, and the group panics
 * there if the name is not a silo-stats-v1 key ([a-z][a-z0-9_]*) or is
 * already taken in this group (the export would collapse the two). The
 * group keeps raw pointers to its stats, which are members of the same
 * component, declared after the group; neither can be copied or
 * moved, so every such component is immovable by construction.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : _name(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /**
     * Emit the group as one JSON object: scalars as numbers, averages
     * as {mean,min,max,count,sum} objects, distributions additionally
     * with p50/p95/p99, bucket_width, buckets[] and overflow, each
     * kind in the order its stats were constructed. Panics if a
     * distribution fails countsConsistent().
     */
    void printJson(std::ostream &os) const;

    /** Reset every statistic of the group. */
    void
    reset()
    {
        for (auto *s : _scalars)
            s->reset();
        for (auto *a : _averages)
            a->reset();
        for (auto *d : _distributions)
            d->reset();
    }

    const std::string &name() const { return _name; }

  private:
    friend class Scalar;
    friend class Average;
    friend class Distribution;

    /** Check that @p name may join this group; panics otherwise. */
    void admit(const std::string &name) const;

    std::string _name;
    std::vector<Scalar *> _scalars;
    std::vector<Average *> _averages;
    std::vector<Distribution *> _distributions;
};

/**
 * A hierarchical registry of StatGroups for structured export.
 *
 * Components register under slash-separated paths ("mc/0", "cache/l1d0",
 * "core/3"); writeJson() nests the path segments into one JSON tree
 * under the versioned "silo-stats-v1" schema, which the sweep engine
 * embeds per cell in results/<bench>.json. Paths are kept sorted, so the
 * serialization is deterministic regardless of registration order.
 *
 * Like StatGroup, the registry holds raw pointers: the registered
 * groups must outlive it (it is built transiently at export time).
 */
class StatRegistry
{
  public:
    /** Register @p group under @p path ('/'-separated hierarchy). */
    void add(std::string path, const StatGroup &group);

    /** Write {"schema":"silo-stats-v1","groups":{...}} to @p os. */
    void writeJson(std::ostream &os) const;

    /** writeJson() into a string. */
    std::string toJson() const;

    std::size_t size() const { return _groups.size(); }

  private:
    std::map<std::string, const StatGroup *> _groups;
};

} // namespace silo::stats

#endif // SILO_SIM_STATS_HH
