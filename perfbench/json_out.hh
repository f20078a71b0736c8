#pragma once

/** @file Minimal JSON rendering for the benchmark's outputs. */

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

/** Shortest decimal that round-trips @p v; throws on NaN/inf, which
 * JSON cannot carry and no measured metric may be. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite value in JSON output");
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** @p s as a quoted JSON string. */
inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace perfbench
