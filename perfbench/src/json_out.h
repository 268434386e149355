// Minimal JSON rendering for the benchmark's own output files.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// Shortest text that reads back as exactly `v`; non-finite values,
/// which JSON cannot carry, render as null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
