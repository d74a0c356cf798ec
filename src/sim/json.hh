/**
 * @file
 * JSON text helpers shared by every JSON writer: the stats export,
 * the tracer, the profiler, sweep results, checker violations and
 * fuzz campaign summaries.
 */

#ifndef SILO_SIM_JSON_HH
#define SILO_SIM_JSON_HH

#include <cstdio>
#include <string>

namespace silo
{

/**
 * @return @p s as the body of a JSON string literal: quotes and
 * backslashes escaped, control characters as \n, \t or \u00XX.
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Round-trippable, locale-independent number formatting. */
inline std::string
jsonNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace silo

#endif // SILO_SIM_JSON_HH
