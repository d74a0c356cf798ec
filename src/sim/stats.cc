#include "sim/stats.hh"

#include <functional>
#include <iomanip>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace silo::stats
{

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
StatGroup::print(std::ostream &os) const
{
    auto emit = [&](const std::string &stat, double value,
                    const std::string &desc) {
        os << std::left << std::setw(44)
           << (_name.empty() ? stat : _name + "." + stat)
           << std::right << std::setw(16) << value;
        if (!desc.empty())
            os << "  # " << desc;
        os << '\n';
    };

    for (const auto *s : _scalars)
        emit(s->name(), double(s->value()), s->desc());
    for (const auto *a : _averages) {
        emit(a->name() + ".mean", a->mean(), a->desc());
        emit(a->name() + ".count", double(a->count()), "");
    }
    for (const auto *d : _distributions) {
        emit(d->name() + ".mean", d->summary().mean(), d->desc());
        emit(d->name() + ".max", d->summary().maximum(), "");
        emit(d->name() + ".count", double(d->summary().count()), "");
    }
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
