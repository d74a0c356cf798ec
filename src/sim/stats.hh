/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Components own named statistics registered in a StatGroup; groups can
 * be dumped as text after a run. All statistics are plain counters so
 * resetting a system between experiments is cheap and exact.
 */

#ifndef SILO_SIM_STATS_HH
#define SILO_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace silo::stats
{

/** A named 64-bit event counter. */
class Scalar
{
  public:
    Scalar() = default;
    Scalar(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(std::uint64_t v) { _value += v; return *this; }

    std::uint64_t value() const { return _value; }
    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }
    void reset() { _value = 0; }

  private:
    std::string _name;
    std::string _desc;
    std::uint64_t _value = 0;
};

/** A running mean over sampled values. */
class Average
{
  public:
    Average() = default;
    Average(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}

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
    const std::string &desc() const { return _desc; }

    void
    reset()
    {
        _sum = 0;
        _count = 0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

  private:
    std::string _name;
    std::string _desc;
    double _sum = 0;
    std::uint64_t _count = 0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/** A fixed-bucket-width histogram with overflow bucket. */
class Distribution
{
  public:
    Distribution() = default;

    /**
     * @param name Stat name.
     * @param desc Human description.
     * @param bucket_width Width of each bucket (> 0).
     * @param num_buckets Number of regular buckets before overflow.
     */
    Distribution(std::string name, std::string desc,
                 std::uint64_t bucket_width, unsigned num_buckets)
        : _name(std::move(name)), _desc(std::move(desc)),
          _bucketWidth(bucket_width ? bucket_width : 1),
          _buckets(num_buckets, 0)
    {}

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
    const std::string &desc() const { return _desc; }

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
    std::string _desc;
    std::uint64_t _bucketWidth = 1;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _overflow = 0;
    Average _stats;
};

/**
 * A registry of statistics owned by one component.
 *
 * Registration keeps raw pointers; the owning component must outlive the
 * group (they are members of the same object in practice). Because the
 * pointers refer into the owning object, copying or moving a component
 * holding a StatGroup would leave the copy's group pointing at the
 * original's statistics — the group is therefore neither copyable nor
 * movable, which makes every such component immovable by construction.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : _name(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    Scalar &
    addScalar(Scalar &s)
    {
        _scalars.push_back(&s);
        return s;
    }

    Average &
    addAverage(Average &a)
    {
        _averages.push_back(&a);
        return a;
    }

    Distribution &
    addDistribution(Distribution &d)
    {
        _distributions.push_back(&d);
        return d;
    }

    /** Dump all registered statistics as "group.stat value # desc". */
    void print(std::ostream &os) const;

    /**
     * Emit the group as one JSON object: scalars as numbers, averages
     * as {mean,min,max,count,sum} objects, distributions additionally
     * with p50/p95/p99, bucket_width, buckets[] and overflow. Panics
     * if a distribution fails countsConsistent().
     */
    void printJson(std::ostream &os) const;

    /** Reset every registered statistic. */
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
