/**
 * @file
 * A reader for the silo-stats-v1 documents System::statsJson() writes,
 * for tests: every number in the document under its '/'-joined key
 * path ("groups/pm/media_word_writes",
 * "groups/core/0/commit_stall/count"). Strings and arrays (a
 * distribution's buckets) are skipped. Throws std::out_of_range on a
 * truncated document.
 */

#ifndef SILO_TESTS_HARNESS_STATS_JSON_HH
#define SILO_TESTS_HARNESS_STATS_JSON_HH

#include <cctype>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>

namespace silo::harness
{

class StatsJsonReader
{
  public:
    explicit StatsJsonReader(const std::string &text) : _s(text) {}

    std::map<std::string, double>
    numbers()
    {
        value("");
        return _out;
    }

  private:
    char
    peek()
    {
        while (std::isspace(static_cast<unsigned char>(_s.at(_i))))
            ++_i;
        return _s.at(_i);
    }

    /** Index of the next @p c after the current character. */
    std::size_t
    next(char c)
    {
        std::size_t at = _s.find(c, _i + 1);
        if (at == std::string::npos)
            throw std::out_of_range("stats document ends early");
        return at;
    }

    /** A string without escapes: every key the export writes. */
    std::string
    string()
    {
        std::size_t end = next('"');
        std::string out = _s.substr(_i + 1, end - _i - 1);
        _i = end + 1;
        return out;
    }

    void
    value(const std::string &path)
    {
        char c = peek();
        if (c == '{') {
            ++_i;
            if (peek() == '}') {
                ++_i;
                return;
            }
            do {
                peek();
                std::string key = string();
                peek();
                ++_i;   // ':'
                value(path.empty() ? key : path + "/" + key);
            } while (peek() == ',' && ++_i);
            ++_i;   // '}'
        } else if (c == '[') {
            _i = next(']') + 1;
        } else if (c == '"') {
            string();
        } else {
            std::size_t used = 0;
            _out[path] = std::stod(_s.substr(_i, 32), &used);
            _i += used;
        }
    }

    const std::string &_s;
    std::size_t _i = 0;
    std::map<std::string, double> _out;
};

/** Every number of the stats document @p json, by key path. */
inline std::map<std::string, double>
statsNumbers(const std::string &json)
{
    return StatsJsonReader(json).numbers();
}

} // namespace silo::harness

#endif // SILO_TESTS_HARNESS_STATS_JSON_HH
