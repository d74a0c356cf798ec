#include "sim/stats.hh"

#include <functional>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace silo::stats
{

Scalar::Scalar(StatGroup &group, std::string name)
    : _name(std::move(name))
{
    group.admit(_name);
    group._scalars.push_back(this);
}

Average::Average(StatGroup &group, std::string name)
    : _name(std::move(name))
{
    group.admit(_name);
    group._averages.push_back(this);
}

Distribution::Distribution(StatGroup &group, std::string name,
                           std::uint64_t bucket_width, unsigned num_buckets)
    : _name(std::move(name)), _bucketWidth(bucket_width ? bucket_width : 1),
      _buckets(num_buckets, 0)
{
    group.admit(_name);
    group._distributions.push_back(this);
}

std::uint64_t
Distribution::percentile(double frac) const
{
    std::uint64_t total = _stats.count();
    if (total == 0)
        return 0;
    if (frac > 1.0)
        frac = 1.0;
    std::uint64_t rank = std::uint64_t(std::ceil(frac * double(total)));
    rank = std::max<std::uint64_t>(1, std::min(rank, total));

    std::uint64_t max_seen = std::uint64_t(_stats.maximum());
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        cum += _buckets[i];
        if (cum >= rank) {
            std::uint64_t edge =
                std::uint64_t(i + 1) * _bucketWidth - 1;
            return std::min(edge, max_seen);
        }
    }
    // The rank falls in the overflow bucket; the observed maximum is
    // the tightest bound we track.
    return max_seen;
}

void
StatGroup::admit(const std::string &name) const
{
    bool key = !name.empty() && name[0] >= 'a' && name[0] <= 'z' &&
               name.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                      "0123456789_") == std::string::npos;
    if (!key)
        panic("stat group " + _name + ": \"" + name +
              "\" is not a silo-stats-v1 key ([a-z][a-z0-9_]*)");
    bool taken =
        std::any_of(_scalars.begin(), _scalars.end(),
                    [&](const Scalar *s) { return s->name() == name; }) ||
        std::any_of(_averages.begin(), _averages.end(),
                    [&](const Average *a) { return a->name() == name; }) ||
        std::any_of(_distributions.begin(), _distributions.end(),
                    [&](const Distribution *d) {
                        return d->name() == name;
                    });
    if (taken)
        panic("stat group " + _name + ": duplicate stat name \"" +
              name + "\"");
}

void
StatGroup::printJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    auto key = [&](const std::string &k) {
        os << (first ? "" : ", ") << '"' << jsonEscape(k) << "\": ";
        first = false;
    };

    for (const auto *s : _scalars) {
        key(s->name());
        os << s->value();
    }
    for (const auto *a : _averages) {
        key(a->name());
        os << "{\"mean\": " << jsonNum(a->mean()) << ", \"min\": "
           << jsonNum(a->minimum()) << ", \"max\": "
           << jsonNum(a->maximum()) << ", \"sum\": "
           << jsonNum(a->sum()) << ", \"count\": " << a->count()
           << "}";
    }
    for (const auto *d : _distributions) {
        if (!d->countsConsistent()) {
            panic("distribution " + d->name() +
                  ": bucket counts do not sum to the sample count");
        }
        key(d->name());
        const Average &s = d->summary();
        os << "{\"mean\": " << jsonNum(s.mean()) << ", \"min\": "
           << jsonNum(s.minimum()) << ", \"max\": "
           << jsonNum(s.maximum()) << ", \"count\": " << s.count()
           << ", \"p50\": " << d->p50() << ", \"p95\": " << d->p95()
           << ", \"p99\": " << d->p99() << ", \"bucket_width\": "
           << d->bucketWidth() << ", \"buckets\": [";
        const auto &buckets = d->buckets();
        for (std::size_t i = 0; i < buckets.size(); ++i)
            os << (i ? ", " : "") << buckets[i];
        os << "], \"overflow\": " << d->overflow() << "}";
    }
    os << "}";
}

void
StatRegistry::add(std::string path, const StatGroup &group)
{
    auto [it, inserted] = _groups.emplace(std::move(path), &group);
    if (!inserted)
        panic("StatRegistry: duplicate path " + it->first);
}

void
StatRegistry::writeJson(std::ostream &os) const
{
    // Fold the sorted flat paths into a tree of '/'-separated segments.
    struct Node
    {
        const StatGroup *group = nullptr;
        std::map<std::string, Node> children;
    };
    Node root;
    for (const auto &[path, group] : _groups) {
        Node *n = &root;
        std::size_t pos = 0;
        for (;;) {
            std::size_t slash = path.find('/', pos);
            n = &n->children[path.substr(
                pos, slash == std::string::npos ? std::string::npos
                                                : slash - pos)];
            if (slash == std::string::npos)
                break;
            pos = slash + 1;
        }
        n->group = group;
    }

    std::function<void(const Node &)> emit = [&](const Node &n) {
        if (n.group && n.children.empty()) {
            n.group->printJson(os);
            return;
        }
        os << "{";
        bool first = true;
        if (n.group) {
            // A path that is both a leaf and a prefix of deeper paths
            // keeps its own stats under a reserved "stats" key.
            os << "\"stats\": ";
            n.group->printJson(os);
            first = false;
        }
        for (const auto &[seg, child] : n.children) {
            os << (first ? "" : ", ") << '"' << jsonEscape(seg)
               << "\": ";
            first = false;
            emit(child);
        }
        os << "}";
    };

    os << "{\"schema\": \"silo-stats-v1\", \"groups\": ";
    emit(root);
    os << "}";
}

std::string
StatRegistry::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

} // namespace silo::stats
